"""Dense linear-algebra kernels shared by the whole package.

All routines operate on plain numpy arrays, complex128 unless stated
otherwise: `pinv_thresholded` keeps real input real (float64), and
`normal_equations_solve` takes real input only, so the stacked real
least-squares system of the constrained solve never pays for complex
arithmetic.  The canonical flattening convention is column-major
("F" order), so that for conformable matrices vec(A X B) = (B^T kron A)
vec(X); row-major flattening exists only for exporting tensors in the
layout used by external tabulations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

COLUMN_MAJOR = "F"
ROW_MAJOR = "C"


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a numerical procedure fails (singularity, divergence)."""


def _require_matrix(a: np.ndarray, name: str) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-d array, got shape {a.shape}")
    return a


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    return _require_matrix(np.asarray(a, dtype=complex), name)


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A^dagger|, the absolute deviation from Hermitian symmetry."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a, rtol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    # a NaN defect compares False against the tolerance below
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} has non-finite entries")
    scale = max(float(np.max(np.abs(a))), 1.0)
    if hermiticity_defect(a) > rtol * scale:
        raise ValidationError(f"{name} is not Hermitian within {rtol:g} (relative)")
    return a


def matexp_hermitian(h, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition h = V L V^dagger.

    For purely imaginary scale the result is unitary to machine precision,
    which is why this is preferred over scaling-and-squaring here.
    """
    h = require_hermitian(h, rtol=1e-12, name="h")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)) @ v.conj().T


class PinvResult(NamedTuple):
    pinv: np.ndarray
    effective_rank: int
    condition_number: float


def pinv_thresholded(m, r_tol: float) -> PinvResult:
    """Moore-Penrose pseudoinverse with relative singular-value threshold.

    Singular values sigma_j are kept iff sigma_j > r_tol * sigma_1 (descending
    order); discarded ones contribute zero.  Returns the pseudoinverse, the
    count of retained singular values, and sigma_1 / sigma_min-retained.
    Real input gives a real (float64) pseudoinverse from a real SVD; any
    complex input is computed in complex128.
    """
    m = np.asarray(m)
    m = _require_matrix(m.astype(complex if np.iscomplexobj(m) else float, copy=False), "m")
    if r_tol < 0:
        raise ValidationError(f"r_tol must be nonnegative, got {r_tol}")
    if not np.any(m):
        raise ValidationError("m must be nonzero")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > r_tol * s[0]
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise NumericalError("all singular values fell below the threshold")
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    cond = float(s[0] / s[:rank].min())
    return PinvResult(vh.conj().T @ (s_inv[:, None] * u.conj().T), rank, cond)


# Gate of `normal_equations_solve`: cond(a) may not exceed COND_MAX, or
# COND_MAX_TIGHT when r_tol < TIGHT_R_TOL, and r_tol * cond(a) may not exceed
# THRESHOLD_MARGIN, so that `pinv_thresholded` would keep every singular value
# with a 100x margin.  The normal equations square cond(a); one corrected
# semi-normal step brings the solution back to least-squares accuracy only
# while cond(a) stays moderate, and the tight bound keeps the ill-conditioned
# steps of runs at r_tol 1e-12 on the pseudoinverse.
COND_MAX = 1e4
COND_MAX_TIGHT = 1e3
TIGHT_R_TOL = 1e-8
THRESHOLD_MARGIN = 1e-2


class NormalSolve(NamedTuple):
    x: np.ndarray
    condition_number: float


def normal_equations_solve(a: np.ndarray, b: np.ndarray, r_tol: float) -> NormalSolve | None:
    """Full-rank real least squares min ||a x - b|| from the normal equations.

    Returns None unless cond(a) passes the gate above (a rank-deficient a,
    or one with fewer rows than columns, never does); the caller then takes
    the `pinv_thresholded` path.  Otherwise the Gram matrix N = a^T a is
    factored by Cholesky, N x = a^T b is solved, and one corrected
    semi-normal step x <- x + N^-1 a^T (b - a x) with the same factor
    reduces the error that squaring the condition number put into x to
    that of a backward-stable solver (Bjorck, Numerical Methods for Least
    Squares Problems, 1996, sec. 2.2).
    The condition number sqrt(lambda_max / lambda_min) comes from the
    eigenvalues of N; every column is kept, so the rank is a.shape[1].
    """
    if r_tol < 0:
        raise ValidationError(f"r_tol must be nonnegative, got {r_tol}")
    cond_max = COND_MAX if r_tol >= TIGHT_R_TOL else COND_MAX_TIGHT
    if r_tol * cond_max > THRESHOLD_MARGIN:
        cond_max = THRESHOLD_MARGIN / r_tol
    gram = a.T @ a
    factor, info = lapack.dpotrf(gram, lower=0, clean=0)
    if info != 0:
        return None
    # lambda_max(N) >= max_j N_jj and lambda_min(N) <= min_i R_ii^2 for the
    # Cholesky factor R: a lower bound on cond(N) that turns most
    # ill-conditioned steps away before the eigenvalues are computed
    if gram.diagonal().max() > cond_max ** 2 * factor.diagonal().min() ** 2:
        return None
    lam = np.linalg.eigvalsh(gram)
    if not lam[0] > 0 or lam[-1] > cond_max ** 2 * lam[0]:
        return None
    x, _ = lapack.dpotrs(factor, a.T @ b)
    correction, _ = lapack.dpotrs(factor, a.T @ (b - a @ x))
    return NormalSolve(x + correction, float(np.sqrt(lam[-1] / lam[0])))


def flatten(p, order: str = COLUMN_MAJOR) -> np.ndarray:
    """vec(p) under the given element order ("F" column-major, "C" row-major)."""
    if order not in (COLUMN_MAJOR, ROW_MAJOR):
        raise ValidationError(f"unknown flatten order {order!r}")
    return as_complex_matrix(p, "p").flatten(order=order)


def unflatten(v, rows: int, cols: int, order: str = COLUMN_MAJOR) -> np.ndarray:
    if order not in (COLUMN_MAJOR, ROW_MAJOR):
        raise ValidationError(f"unknown flatten order {order!r}")
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != rows * cols:
        raise ValidationError(f"cannot reshape length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order=order)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from QR of a complex Gaussian matrix.

    The R-diagonal phase fix makes the result a deterministic function of
    the generator state.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (z + z.conj().T)
