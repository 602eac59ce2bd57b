"""Self-contained time-delay propagation of reduced observables.

Given a discrete-time linear system z(t+1) = A(t) z(t) with invertible
(typically unitary) propagators and a reduction y(t) = R z(t), the stacked
observation operator M(t) relates the current full state to present and past
reduced vectors.  Its thresholded pseudoinverse closes a linear delay
equation y(t+1) = R A(t) M(t)^+ Y(t).  A Mori-Zwanzig style propagator for
the same partially observed setting is provided for comparison.
"""

from __future__ import annotations

import cmath
import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numkit import (
    NumericalError,
    ValidationError,
    as_complex_matrix,
    pinv_thresholded,
)


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time linear system z(t+1) = A(t) z(t)."""

    dim: int
    step_propagator: Callable[[int], np.ndarray]

    def propagator(self, t: int) -> np.ndarray:
        a = as_complex_matrix(self.step_propagator(t), "A(t)")
        if a.shape != (self.dim, self.dim):
            raise ValidationError(f"A({t}) has shape {a.shape}, expected {(self.dim, self.dim)}")
        return a


@dataclass(frozen=True)
class ReductionMap:
    """Full-row-rank m x n reduction matrix R (m < n)."""

    matrix: np.ndarray

    def __post_init__(self):
        r = as_complex_matrix(self.matrix, "R")
        object.__setattr__(self, "matrix", r)
        s = np.linalg.svd(r, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise ValidationError("R must have full row rank")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class DelayConfig:
    """Memory depth ell, stride k, and pseudoinverse relative tolerance."""

    ell: int = 0
    stride: int = 1
    r_tol: float = 1e-12

    def __post_init__(self):
        if self.ell < 0:
            raise ValidationError(f"ell must be >= 0, got {self.ell}")
        if self.stride < 1:
            raise ValidationError(f"stride must be >= 1, got {self.stride}")
        if self.r_tol < 0:
            raise ValidationError(f"r_tol must be >= 0, got {self.r_tol}")

    @property
    def depth(self) -> int:
        """Number of past steps spanned by the memory window."""
        return self.ell * self.stride


@dataclass
class HistoryBuffer:
    """Ring buffer of recent step propagators and reduced vectors.

    ``propagators[-1]`` is A(t-1), the step that produced the newest state;
    ``reduced[-1]`` is y(t).  Capacities are depth and depth+1 respectively.
    """

    depth: int
    propagators: deque = field(init=False)
    reduced: deque = field(init=False)

    def __post_init__(self):
        self.propagators = deque(maxlen=max(self.depth, 1))
        self.reduced = deque(maxlen=self.depth + 1)

    def push(self, a_prev: np.ndarray | None, y: np.ndarray):
        if a_prev is not None:
            self.propagators.append(np.asarray(a_prev, dtype=complex))
        self.reduced.append(np.asarray(y, dtype=complex).ravel())

    def stacked_reduced(self, cfg: DelayConfig) -> np.ndarray:
        """Y_ell(t) = (y(t), y(t-k), ..., y(t-ell*k)) as one long vector."""
        if len(self.reduced) < cfg.depth + 1:
            raise ValidationError(
                f"need {cfg.depth + 1} reduced vectors, have {len(self.reduced)}"
            )
        return np.concatenate(
            [self.reduced[-1 - j * cfg.stride] for j in range(cfg.ell + 1)]
        )


def _back_step(a: np.ndarray, unitary: bool) -> np.ndarray:
    """A(t)^dagger for unitary systems, A(t)^-1 otherwise."""
    if unitary:
        return a.conj().T
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"propagator condition number {cond:.3e} exceeds 1e12")
    return np.linalg.inv(a)


def build_M(history: HistoryBuffer, r: ReductionMap, cfg: DelayConfig,
            unitary: bool = True) -> np.ndarray:
    """Stacked observation operator with stride.

    Block j (j = 0..ell) is R times the product of back-steps carrying z(t)
    to z(t - j*k); block 0 is R itself.
    """
    need = cfg.depth
    if len(history.propagators) < need:
        raise ValidationError(
            f"insufficient history: need {need} step propagators, "
            f"have {len(history.propagators)}"
        )
    blocks = [r.matrix]
    back = np.eye(r.n, dtype=complex)
    props = list(history.propagators)
    for m in range(1, need + 1):
        back = _back_step(props[-m], unitary) @ back
        if m % cfg.stride == 0:
            blocks.append(r.matrix @ back)
    return np.vstack(blocks)


@dataclass(frozen=True)
class StepDiagnostics:
    effective_rank: int
    condition_number: float
    residual: float
    rank_deficient: bool


def propagate_y(history: HistoryBuffer, r: ReductionMap, a_t: np.ndarray,
                cfg: DelayConfig, unitary: bool = True):
    """One step of the self-contained delay equation for y.

    Returns (y(t+1), diagnostics).  Rank deficiency of M(t) is reported via
    a warning and the diagnostics record, never a hard failure: the
    thresholded pseudoinverse still yields a least-squares reconstruction.
    A non-finite z_hat or y(t+1) raises `NumericalError` naming the stage
    (solve or propagation) where it appeared.
    """
    m_t = build_M(history, r, cfg, unitary=unitary)
    y_stack = history.stacked_reduced(cfg)
    pinv, rank, cond = pinv_thresholded(m_t, cfg.r_tol)
    z_hat = pinv @ y_stack
    residual = float(np.linalg.norm(m_t @ z_hat - y_stack))
    deficient = rank < r.n
    if deficient:
        warnings.warn(
            f"M(t) rank {rank} < state dimension {r.n}; reconstruction is least-squares",
            RuntimeWarning,
            stacklevel=2,
        )
    y_next = r.matrix @ (as_complex_matrix(a_t, "A(t)") @ z_hat)
    # 0 * y is 0 for finite y and NaN otherwise, so one product tests every
    # entry of y(t+1) = R A z_hat; a non-finite z_hat makes all of them
    # non-finite, and the stage is told apart only on failure
    if not cmath.isfinite(np.vdot(np.zeros(y_next.size), y_next)):
        stage = "propagation" if np.isfinite(z_hat).all() else "solve"
        raise NumericalError(f"propagate_y: the {stage} stage produced non-finite values")
    return y_next, StepDiagnostics(rank, cond, residual, deficient)


def complete_reduction_basis(r: ReductionMap) -> np.ndarray:
    """Rows spanning the orthogonal complement of R's row space.

    Stacking [R; Rtilde] gives an invertible n x n matrix; for orthonormal-row
    R the stack is unitary.
    """
    _, s, vh = np.linalg.svd(r.matrix, full_matrices=True)
    if s[-1] <= 1e-12 * s[0]:
        raise ValidationError("R is rank deficient")
    return vh[r.m:, :]


def mori_zwanzig_propagate(a, r: ReductionMap, y0, ytilde0, steps: int,
                           rtilde: np.ndarray | None = None,
                           truncate_memory_half: bool = False):
    """Memory-summed propagation of the observed block of a completed basis.

    Conjugates the constant unitary a by [R; Rtilde] and iterates

        y(t+1) = B11 y(t) + sum_s B12 B22^s B21 y(t-1-s) + B12 B22^t ytilde(0).

    Returns (trajectory, diverged): trajectory is a (steps+1, m) array with
    trajectory[t] = y(t), and diverged flags some ||y(t)||, t >= 1, exceeding
    1e3 ||y(0)||.  With ``truncate_memory_half`` only the most recent half of
    the memory terms is summed (used to demonstrate that truncation is not
    benign).  The kernels B12 B22^s B21 are stacked once, so each step sums
    its memory with one matrix-vector product: O(steps) Python iterations and
    O(steps^2 m^2) flops.  A y(t) that overflows raises `NumericalError`
    naming the first such step t.
    """
    a = as_complex_matrix(a, "a")
    if a.shape != (r.n, r.n):
        raise ValidationError(f"a has shape {a.shape}, expected {(r.n, r.n)}")
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    y0 = np.asarray(y0, dtype=complex).ravel()
    ytilde0 = np.asarray(ytilde0, dtype=complex).ravel()
    for name, v, size in (("y0", y0, r.m), ("ytilde0", ytilde0, r.n - r.m)):
        if v.size != size:
            raise ValidationError(f"{name} has {v.size} entries, expected {size}")
    if not (np.isfinite(a).all() and np.isfinite(y0).all() and np.isfinite(ytilde0).all()):
        raise ValidationError("a, y0 and ytilde0 must be finite")
    if rtilde is None:
        rtilde = complete_reduction_basis(r)
    rbig = np.vstack([r.matrix, as_complex_matrix(rtilde, "rtilde")])
    if rbig.shape[0] != rbig.shape[1]:
        raise ValidationError("[R; Rtilde] must be square")
    cond = np.linalg.cond(rbig)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValidationError("[R; Rtilde] is numerically singular")
    b = rbig @ a @ np.linalg.inv(rbig)
    m = r.m
    b11, b12 = b[:m, :m], b[:m, m:]
    b21, b22 = b[m:, :m], b[m:, m:]

    kernels = np.empty((m, steps, m), dtype=complex)  # kernels[:, s] = B12 B22^s B21
    forcing = np.empty((steps, m), dtype=complex)  # forcing[t] = B12 B22^t ytilde(0)
    b22_pow = np.eye(b22.shape[0], dtype=complex)  # B22^t
    for t in range(steps):
        kernels[:, t] = b12 @ b22_pow @ b21
        forcing[t] = b12 @ (b22_pow @ ytilde0)
        b22_pow = b22 @ b22_pow
    # rev[steps - t] = y(t): the memory of step t, y(t-1), y(t-2), ..., is
    # the contiguous run of rows after y(t)
    rev = np.empty((steps + 1, m), dtype=complex)
    rev[steps] = y0
    for t in range(steps):
        i = steps - t
        n_terms = (t + 1) // 2 if truncate_memory_half else t
        rev[i - 1] = (b11 @ rev[i] + forcing[t]
                      + kernels[:, :n_terms].reshape(m, -1) @ rev[i + 1:i + 1 + n_terms].ravel())
    traj = rev[::-1]
    finite = np.isfinite(traj).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"mori_zwanzig_propagate: y({int(np.argmin(finite))}) is not finite")
    norm0 = max(float(np.linalg.norm(y0)), np.finfo(float).tiny)
    diverged = bool((np.linalg.norm(traj[1:], axis=1) > 1e3 * norm0).any())
    return traj, diverged


def propagate_full_state(system: LinearSystem, z0, steps: int) -> list[np.ndarray]:
    """Direct full-state trajectory, the oracle for the delay scheme."""
    z = np.asarray(z0, dtype=complex).ravel()
    out = [z]
    for t in range(steps):
        z = system.propagator(t) @ z
        out.append(z)
    return out
