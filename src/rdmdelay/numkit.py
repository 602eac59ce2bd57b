"""Dense linear-algebra kernels shared by the whole package.

All routines operate on plain numpy arrays, complex128 unless stated
otherwise: `pinv_thresholded` keeps real input real (float64), and
`normal_equations_factor` takes real input only, so the real least-squares
system of the constrained solve never pays for complex arithmetic.  The
canonical flattening convention is column-major ("F" order), so that for
conformable matrices vec(A X B) = (B^T kron A) vec(X).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

_dsytrd_lwork = functools.cache(lambda n: lapack.dsytrd_lwork(n, lower=1))  # once per n


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


def require_count(name: str, v, low: int):
    """Raise `ValidationError` unless v is an int or numpy integer >= low, not a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {v!r}")


def require_tolerance(r_tol):
    """Raise `ValidationError` unless the relative tolerance r_tol is finite and >= 0."""
    if not 0 <= r_tol < math.inf:  # a NaN fails both comparisons
        raise ValidationError(f"r_tol must be finite and >= 0, got {r_tol}")


def is_unitary(a: np.ndarray) -> bool:
    """Whether the square matrix a passes ||A^dagger A - I||_F <= 1e-10 n,
    the package's one unitarity bound.  A NaN or infinite entry fails it."""
    n = len(a)
    # a non-finite entry gives a NaN or infinite defect, which fails below
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(a.conj().T @ a - np.eye(n))
    return bool(defect <= 1e-10 * n)


def hermiticity_defect(a: np.ndarray):
    """max |A - A^dagger|, the absolute deviation from Hermitian symmetry:
    a float for one matrix, or for a stack (..., n, n) an array of each
    matrix's defect, bit for bit what the matrix gives alone.  A NaN entry
    gives NaN, and an empty matrix 0."""
    if not a.shape[-1]:
        defect = np.zeros(a.shape[:-2])
    else:
        defect = np.abs(a - a.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return float(defect) if a.ndim == 2 else defect


def require_hermitian(a, rtol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """a as a complex array, if it is a finite Hermitian matrix, or a stack
    (..., n, n) of them, with max |A - A^dagger| <= rtol * max(max |A|, 1)
    for each matrix A."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.size == 0:
        raise ValidationError(f"{name} must be a matrix or a stack of matrices, "
                              f"got shape {a.shape}")
    if a.shape[-2] != a.shape[-1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    # a NaN defect compares False against the tolerance below
    if not np.isfinite(a).all():
        raise ValidationError(f"{name} has non-finite entries")
    if np.any(hermiticity_defect(a) > rtol * np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)):
        raise ValidationError(f"{name} is not Hermitian within {rtol:g} (relative)")
    return a


def matexp_hermitian(h, scale: complex) -> np.ndarray:
    """exp(scale * h) for Hermitian h, via eigendecomposition h = V L V^dagger.

    h may be one matrix or a stack (..., n, n) of them; each matrix of the
    stack gets the exponential it would get on its own, bit for bit (one
    `eigh` and one `matmul` over the stack, each looping over the matrices).
    For purely imaginary scale the result is unitary to machine precision,
    which is why this is preferred over scaling-and-squaring here.
    """
    h = require_hermitian(h, rtol=1e-12, name="h")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(scale * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
    require_tolerance(r_tol)
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


# Gate of `normal_equations_factor`: cond(a) may not exceed COND_MAX, or
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


def extreme_eigenvalues(s: np.ndarray) -> tuple[float, float] | None:
    """(lambda_min, lambda_max) of a real symmetric matrix s, read from its
    lower triangle, or None if LAPACK reports a failure.  s is left
    unchanged: the reduction works on a copy.

    s is reduced to tridiagonal form by Householder reflections (`dsytrd`,
    the reduction `np.linalg.eigvalsh` starts with), and each end
    eigenvalue of the tridiagonal matrix is found by Sturm-sequence
    bisection (`dstebz`) to full relative accuracy, with the absolute
    tolerance of twice the underflow threshold that LAPACK recommends for
    it (Golub & Van Loan, Matrix Computations, 4th ed., secs. 8.3.1 and
    8.4.1).  The values differ from the ends of `eigvalsh`'s spectrum only
    by the rounding of the last stage, which there is root-free QR over
    the whole tridiagonal (`dsterf`); where bisection fails, that stage is
    run instead.  The reduction costs 4n^3/3 flops, a bisection step O(n).
    """
    return _extreme_eigenvalues(s, overwrite=False)


def _extreme_eigenvalues(s: np.ndarray, overwrite: bool) -> tuple[float, float] | None:
    """`extreme_eigenvalues`; with overwrite, an F-ordered float64 s is
    reduced in place, and its contents are lost."""
    n = s.shape[0]
    lwork, info = _dsytrd_lwork(n)
    if info != 0:
        return None
    # the wrapper's default workspace of n runs the unblocked reduction
    _, d, e, _, info = lapack.dsytrd(s, lower=1, lwork=int(lwork), overwrite_a=overwrite)
    if info != 0:
        return None
    if n == 1:  # dstebz's wrapper rejects the empty off-diagonal
        return float(d[0]), float(d[0])
    abstol = 2 * sys.float_info.min
    ends = []
    for i in (1, n):
        found, w, _, _, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, abstol, "E")
        if info != 0 or found != 1:
            # bisection by index can lose count in a cluster of eigenvalues
            # equal to rounding (dstebz INFO 2 to 4, seen on a Gram matrix
            # equal to I); LAPACK's cure is the whole tridiagonal spectrum
            w, info = lapack.dsterf(d, e)
            return (float(w[0]), float(w[-1])) if info == 0 else None
        ends.append(float(w[0]))
    return ends[0], ends[1]


class LeastSquaresFactor(NamedTuple):
    """min ||a x - b|| factored once for any right-hand side b: by the
    Cholesky factor of a^T a (`normal_equations_factor`), or else by the
    thresholded pseudoinverse of a (`pinv_thresholded`), with the rank and
    condition number of that solve.  Exactly one of `cholesky` and `pinv`
    is set."""

    a: np.ndarray
    cholesky: np.ndarray | None  # upper Cholesky factor R of a^T a = R^T R
    pinv: np.ndarray | None
    effective_rank: int
    condition_number: float

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x = a^+ b.  With the Cholesky factor, N x = a^T b is solved, and one
        corrected semi-normal step x <- x + N^-1 a^T (b - a x) reduces the
        error that squaring cond(a) put into x to that of a backward-stable
        solver (Bjorck, Numerical Methods for Least Squares Problems, sec. 2.2)."""
        a, cholesky = self.a, self.cholesky
        if cholesky is None:
            return self.pinv @ b
        x, _ = lapack.dpotrs(cholesky, a.T @ b)
        correction, _ = lapack.dpotrs(cholesky, a.T @ (b - a @ x))
        return x + correction

    def residual(self, x: np.ndarray, b: np.ndarray) -> float:
        """||a x - b||, as `np.linalg.norm` computes it."""
        r = self.a @ x - b
        # np.linalg.norm of a real vector r is sqrt(r . r), computed here without its dispatch
        return math.sqrt(r.dot(r)) if r.dtype.kind == "f" else float(np.linalg.norm(r))


def normal_equations_factor(a: np.ndarray, r_tol: float) -> LeastSquaresFactor | None:
    """Full-rank real least squares min ||a x - b|| by the Cholesky factor of
    the Gram matrix N = a^T a, if cond(a) passes the gate above, else None
    (a rank-deficient a, or one with fewer rows than columns, never does).

    The condition number sqrt(lambda_max / lambda_min) comes from the two
    end eigenvalues of N alone (`extreme_eigenvalues`), not from its full
    spectrum; every column is kept, so the rank is a.shape[1].  N is
    reduced to tridiagonal form in place, so a step holds N and its
    Cholesky factor, never a third array of their size.  N is formed from
    a C-ordered copy of an a of any other layout, which the factor keeps,
    so the result does not depend on a's memory layout.
    A non-finite entry of a raises `NumericalError`: it shows as a
    non-finite diagonal of N, which is checked before the gate.
    """
    require_tolerance(r_tol)
    cond_max = COND_MAX if r_tol >= TIGHT_R_TOL else COND_MAX_TIGHT
    if r_tol * cond_max > THRESHOLD_MARGIN:
        cond_max = THRESHOLD_MARGIN / r_tol
    # a.T @ a of a C-ordered a is one syrk whose other triangle numpy fills
    # by copying, so N is exactly symmetric, as the reduction below needs;
    # for another layout the two triangles can differ by rounding.  The
    # constrained step's A is C-ordered, so it is not copied
    a = np.ascontiguousarray(a)
    # an overflow is routed to the pseudoinverse by the diagonal check below
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    # N_jj = ||a_j||^2 is NaN or infinite for every column of a holding a NaN
    # or an infinity, and for a finite column only if squaring overflowed,
    # which the pseudoinverse path, working on a itself, can still solve
    diag_max = gram.diagonal().max()
    if not diag_max < np.inf:
        if not np.isfinite(a).all():
            raise NumericalError("the least-squares system has non-finite entries")
        return None
    factor, info = lapack.dpotrf(gram, lower=0, clean=0)
    if info != 0:
        return None
    # lambda_max(N) >= max_j N_jj and lambda_min(N) <= min_i R_ii^2 for the
    # Cholesky factor R: a lower bound on cond(N) that turns most
    # ill-conditioned steps away before the eigenvalues are computed
    if diag_max > cond_max ** 2 * factor.diagonal().min() ** 2:
        return None
    # N's transpose is F-ordered as LAPACK wants it, so dsytrd overwrites it
    # without a copy, reading N's upper triangle, which is its lower one
    ends = _extreme_eigenvalues(gram.T, overwrite=True)
    if ends is None:
        return None
    lam_min, lam_max = ends
    if not lam_min > 0 or lam_max > cond_max ** 2 * lam_min:
        return None
    return LeastSquaresFactor(a, factor, None, a.shape[1],
                              float(np.sqrt(lam_max / lam_min)))


def flatten(p) -> np.ndarray:
    """vec(p), column-major."""
    return as_complex_matrix(p, "p").flatten(order="F")


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
