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
from typing import NamedTuple

import numpy as np

from .numkit import (
    LeastSquaresFactor,
    NumericalError,
    ValidationError,
    as_complex_matrix,
    is_unitary,
    normal_equations_factor,
    pinv_thresholded,
    require_count,
    require_tolerance,
)


@dataclass(frozen=True)
class ReductionMap:
    """Full-row-rank m x n reduction matrix R (m <= n)."""

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
        require_count("ell", self.ell, 0)
        require_count("stride", self.stride, 1)
        require_tolerance(self.r_tol)

    @property
    def depth(self) -> int:
        """Number of past steps spanned by the memory window."""
        return self.ell * self.stride


def factor_least_squares(a: np.ndarray, r_tol: float) -> LeastSquaresFactor:
    """min ||a x - b|| factored for any b: a real a by its normal equations
    when it passes their gate (`numkit.normal_equations_factor`), every
    other a by the thresholded pseudoinverse (`pinv_thresholded`).
    Which of the two the factor holds tells the path a solve took.  An a
    with no column (a constrained N_C = 1 system, whose trace fixes P)
    leaves nothing to solve for: x is empty, the residual is ||b||, and
    the factor reads rank 0 and condition number 1."""
    if a.shape[1] == 0:
        return LeastSquaresFactor(a, None, np.zeros((0, a.shape[0]), a.dtype), 0, 1.0)
    if a.dtype.kind != "c":
        factor = normal_equations_factor(a, r_tol)
        if factor is not None:
            return factor
    return LeastSquaresFactor(a, None, *pinv_thresholded(a, r_tol))


class KeptMemory(NamedTuple):
    """M(t) of a `propagate_y` call, the map it was built for, and its factor."""

    r: ReductionMap  # compared by identity
    ell: int
    stride: int
    pushes: int  # `HistoryBuffer.pushes` when m was last found current
    m: np.ndarray
    r_tol: float | None
    factor: LeastSquaresFactor | None  # of m at r_tol


@dataclass
class HistoryBuffer:
    """Ring buffer of recent step propagators and reduced vectors.

    ``propagators[-1]`` is A(t-1), the step that produced the newest state;
    ``reduced[-1]`` is y(t).  Capacities are depth (an integer >= 0) and
    depth+1 respectively.  `push` keeps every propagator, and every reduced
    vector, the shape of the first; ``pushes`` counts the propagators
    pushed, and ``run_start`` is the count at which the newest run of
    bitwise-equal propagators began.  ``memory`` is the M(t) of the last
    `propagate_y` call and its factor, which later calls reuse while M's
    window is unchanged (see there).  That reuse and `build_M` read
    ``run_start``, so change the history only through `push`.
    """

    depth: int
    propagators: deque = field(init=False)
    reduced: deque = field(init=False)
    pushes: int = field(init=False, default=0)
    run_start: int = field(init=False, default=0)
    memory: KeptMemory | None = field(init=False, default=None)

    def __post_init__(self):
        require_count("depth", self.depth, 0)
        self.depth = int(self.depth)  # deque takes no numpy integer
        self.propagators = deque(maxlen=max(self.depth, 1))
        self.reduced = deque(maxlen=self.depth + 1)

    def push(self, a_prev: np.ndarray | None, y: np.ndarray):
        """Append A(t-1) (None at the start, and only there) and y(t)."""
        y = np.asarray(y, dtype=complex).ravel()
        if self.reduced and y.shape != self.reduced[-1].shape:
            raise ValidationError(f"y has shape {y.shape}, but the history's reduced "
                                  f"vectors have shape {self.reduced[-1].shape}")
        if a_prev is None and self.reduced:
            raise ValidationError("a_prev may be None only before the first reduced vector")
        if a_prev is not None:
            a_prev = np.asarray(a_prev, dtype=complex)
            if self.propagators and a_prev.shape != self.propagators[-1].shape:
                raise ValidationError(f"a_prev has shape {a_prev.shape}, but the history's "
                                      f"propagators have shape {self.propagators[-1].shape}")
            self.pushes += 1
            # the same array pushed again continues its run without a compare
            if not self.propagators or (a_prev is not self.propagators[-1] and
                                        not np.array_equal(a_prev, self.propagators[-1])):
                self.run_start = self.pushes
            self.propagators.append(a_prev)
        self.reduced.append(y)

    def stacked_reduced(self, cfg: DelayConfig) -> np.ndarray:
        """Y_ell(t) = (y(t), y(t-k), ..., y(t-ell*k)) as one long vector."""
        if len(self.reduced) < cfg.depth + 1:
            raise ValidationError(
                f"need {cfg.depth + 1} reduced vectors, have {len(self.reduced)}"
            )
        return np.concatenate(
            [self.reduced[-1 - j * cfg.stride] for j in range(cfg.ell + 1)]
        )


def _back_step(a: np.ndarray) -> np.ndarray:
    """The map from z(t+1) back to z(t): A(t)^dagger when A(t) passes
    `is_unitary`, else A(t)^-1, whose condition number must not exceed 1e12.
    A non-finite A(t) raises `NumericalError`."""
    if is_unitary(a):
        return a.conj().T
    if not np.isfinite(a).all():
        raise NumericalError("propagator has non-finite entries")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError(f"propagator condition number {cond:.3e} exceeds 1e12")
    return np.linalg.inv(a)


def build_M(history: HistoryBuffer, r: ReductionMap, cfg: DelayConfig) -> np.ndarray:
    """Stacked observation operator with stride.

    Block j (j = 0..ell) is R times the product of back-steps carrying z(t)
    to z(t - j*k); block 0 is R itself.  At stride k > 1, a window that is
    one run of bitwise-equal propagators (``history.run_start``) steps back
    k steps at once, by the k-th power of its one back-step formed by
    repeated squaring: O(log k + ell) products instead of ell * k, equal to
    the step-by-step product up to rounding.  At stride 1 every block needs
    every product, so the window is stepped back one propagator at a time.
    """
    need = cfg.depth
    if len(history.propagators) < need:
        raise ValidationError(
            f"insufficient history: need {need} step propagators, "
            f"have {len(history.propagators)}"
        )
    blocks = [r.matrix]
    back = np.eye(r.n, dtype=complex)
    if cfg.stride > 1 and need and history.run_start <= history.pushes - need + 1:
        jump = np.linalg.matrix_power(_back_step(history.propagators[-1]), cfg.stride)
        for _ in range(cfg.ell):
            back = jump @ back
            blocks.append(r.matrix @ back)
        return np.vstack(blocks)
    props = list(history.propagators)
    for m in range(1, need + 1):
        # a window of one repeated array forms its back-step once
        if m == 1 or props[-m] is not props[1 - m]:
            step = _back_step(props[-m])
        back = step @ back
        if m % cfg.stride == 0:
            blocks.append(r.matrix @ back)
    return np.vstack(blocks)


@dataclass(frozen=True)
class StepDiagnostics:
    effective_rank: int
    condition_number: float
    residual: float
    rank_deficient: bool


def _memory_matrix(history: HistoryBuffer, r: ReductionMap, cfg: DelayConfig) -> KeptMemory:
    """M(t) for `propagate_y` as a record, which the caller keeps on the history.

    The kept record is reused while M's window is unchanged: the same r (by
    identity), ell and stride, and no push since it was built, or ell 0,
    whose M reads no propagator, or a run of bitwise-equal propagators
    (``history.run_start``) that began at or before the first propagator of
    the kept window.  Otherwise `build_M` forms M.  Either way M is bitwise
    what `build_M` gives on this history.
    """
    kept = history.memory
    if (kept is not None and kept.r is r and (kept.ell, kept.stride) == (cfg.ell, cfg.stride)
            and (kept.pushes == history.pushes or cfg.depth == 0
                 or history.run_start <= kept.pushes - cfg.depth + 1)):
        return kept
    return KeptMemory(r, cfg.ell, cfg.stride, history.pushes, build_M(history, r, cfg), None, None)


def propagate_y(history: HistoryBuffer, r: ReductionMap, a_t: np.ndarray,
                cfg: DelayConfig):
    """One step of the self-contained delay equation for y.

    Returns (y(t+1), diagnostics).  Rank deficiency of M(t) is reported via
    a warning and the diagnostics record, never a hard failure: the
    thresholded pseudoinverse still yields a least-squares reconstruction.
    A failed SVD, or a non-finite z_hat or y(t+1), raises `NumericalError`
    naming the step and the stage (solve or propagation) where it appeared,
    and a non-finite or ill-conditioned propagator in M's window
    (`_back_step`) names the memory-matrix stage.  The
    step is numbered history.pushes + 1, the step that makes y(t+1) from a
    history of y(0)..y(t), as `DelayPropagator.step` numbers its steps.  An
    a_t, or a history, whose shapes do not match r raises `ValidationError`.

    M(t) and its factor are kept on the history and reused while M's window
    of propagators is unchanged (`_memory_matrix`); the factor is formed
    again when r_tol changes.  M(t) depends only on r, ell, stride and that
    window, so every output is bitwise what the same call gives on a new
    `HistoryBuffer` with the same contents.
    """
    a_t = as_complex_matrix(a_t, "A(t)")
    if a_t.shape != (r.n, r.n):
        raise ValidationError(f"a_t has shape {a_t.shape}, but r has n = {r.n}")
    # push keeps the history's shapes uniform, so its newest entries stand for all
    if history.propagators and history.propagators[-1].shape != a_t.shape:
        raise ValidationError(f"the history's propagators have shape "
                              f"{history.propagators[-1].shape}, but r has n = {r.n}")
    if history.reduced and history.reduced[-1].shape != (r.m,):
        raise ValidationError(f"the history's reduced vectors have shape "
                              f"{history.reduced[-1].shape}, but r has m = {r.m}")
    step = history.pushes + 1
    try:
        kept = _memory_matrix(history, r, cfg)
    except NumericalError as exc:
        raise NumericalError(f"propagate_y: step {step}: the memory-matrix stage "
                             f"failed: {exc}") from exc
    y_stack = history.stacked_reduced(cfg)
    if kept.r_tol != cfg.r_tol:
        try:
            kept = kept._replace(r_tol=cfg.r_tol, factor=factor_least_squares(kept.m, cfg.r_tol))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"propagate_y: step {step}: the solve stage "
                                 f"failed: {exc}") from exc
    history.memory = kept._replace(pushes=history.pushes)
    factor = kept.factor
    rank, cond = factor.effective_rank, factor.condition_number
    # a non-finite z_hat or y(t+1) is reported below, naming the stage
    with np.errstate(over="ignore", invalid="ignore"):
        z_hat = factor.solve(y_stack)
        residual = factor.residual(z_hat, y_stack)
        y_next = r.matrix @ (a_t @ z_hat)
    deficient = rank < r.n
    if deficient:
        warnings.warn(
            f"M(t) rank {rank} < state dimension {r.n}; reconstruction is least-squares",
            RuntimeWarning,
            stacklevel=2,
        )
    # 0 * y is 0 for finite y and NaN otherwise, so one product tests every
    # entry of y(t+1) = R A z_hat; a non-finite z_hat makes all of them
    # non-finite, and the stage is told apart only on failure
    if not cmath.isfinite(np.vdot(np.zeros(y_next.size), y_next)):
        stage = "propagation" if np.isfinite(z_hat).all() else "solve"
        raise NumericalError(f"propagate_y: step {step}: the {stage} stage "
                             f"produced non-finite values")
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


# powers of B22 that `mori_zwanzig_propagate` builds per block
_MZ_POWER_BLOCK = 32


def mori_zwanzig_propagate(a, r: ReductionMap, y0, ytilde0, steps: int,
                           rtilde: np.ndarray | None = None,
                           truncate_memory_half: bool = False):
    """Memory-summed propagation of the observed block of a completed basis.

    Conjugates the constant propagator a by [R; Rtilde] and iterates

        y(t+1) = B11 y(t) + sum_s B12 B22^s B21 y(t-1-s) + B12 B22^t ytilde(0).

    Returns (trajectory, diverged): trajectory is a (steps+1, m) array with
    trajectory[t] = y(t), and diverged flags some ||y(t)||, t >= 1, exceeding
    1e3 ||y(0)||.  With ``truncate_memory_half`` only the most recent half of
    the memory terms is summed (used to demonstrate that truncation is not
    benign).  A y(t) that overflows raises `NumericalError` naming the first
    such step t.  The block recurrence is exact for any square a, unitary or
    not, so a is not checked for unitarity.

    Before the time loop, one (m, steps+1, m) stack holds B11 and then every
    kernel B12 B22^s B21.  The powers W_s = B12 B22^s are built
    `_MZ_POWER_BLOCK` at a time: the first block by the recurrence
    W_s = W_{s-1} B22, each later block as one product of the last block
    with B22^_MZ_POWER_BLOCK.  A block's kernels and forcing terms are one
    product each, so the set-up makes 35 + 3 ceil(steps / _MZ_POWER_BLOCK)
    products and keeps one block of W alive, never all the powers.  The
    trajectory is filled newest row first, so each step is one
    matrix-vector product of the stack's leading columns with the
    contiguous rows y(t), y(t-1), ..., plus the forcing term: O(steps)
    products and O(steps^2 m^2) flops.
    """
    a = as_complex_matrix(a, "a")
    if a.shape != (r.n, r.n):
        raise ValidationError(f"a has shape {a.shape}, expected {(r.n, r.n)}")
    require_count("steps", steps, 0)
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

    # kern[:, 0] = B11, kern[:, s+1] = B12 B22^s B21
    kern = np.empty((m, steps + 1, m), dtype=complex)
    kern[:, 0] = b11
    forcing = np.empty((steps, m), dtype=complex)  # forcing[t] = B12 B22^t ytilde(0)
    # an overflow shows as a non-finite y(t), reported below by step
    with np.errstate(over="ignore", invalid="ignore"):
        # rows s*m .. s*m+m-1 of w hold W_s for the block's s
        for s0 in range(0, steps, _MZ_POWER_BLOCK):
            count = min(_MZ_POWER_BLOCK, steps - s0)
            if s0 == 0:
                w = np.empty((count * m, r.n - m), dtype=complex)
                w[:m] = b12
                for s in range(1, count):
                    np.matmul(w[(s - 1) * m:s * m], b22, out=w[s * m:(s + 1) * m])
                jump = (np.linalg.matrix_power(b22, _MZ_POWER_BLOCK)
                        if steps > _MZ_POWER_BLOCK else None)
            else:
                w = w[:count * m] @ jump
            kern[:, s0 + 1:s0 + 1 + count] = (w @ b21).reshape(count, m, m).swapaxes(0, 1)
            forcing[s0:s0 + count] = (w @ ytilde0).reshape(count, m)
        # rev[steps - t] = y(t): y(t), y(t-1), ... are the contiguous rows from
        # rev[steps - t] on, which kern's leading columns multiply
        rev = np.empty((steps + 1, m), dtype=complex)
        rev[steps] = y0
        kern_cols, rev_flat = kern.reshape(m, -1), rev.reshape(-1)
        for t in range(steps):
            i = steps - t
            n_terms = (t + 1) // 2 if truncate_memory_half else t
            y_next = rev[i - 1]
            np.matmul(kern_cols[:, :(n_terms + 1) * m],
                      rev_flat[i * m:(i + 1 + n_terms) * m], out=y_next)
            y_next += forcing[t]
    traj = rev[::-1]
    finite = np.isfinite(traj).all(axis=1)
    if not finite.all():
        raise NumericalError(
            f"mori_zwanzig_propagate: y({int(np.argmin(finite))}) is not finite")
    norm0 = max(float(np.linalg.norm(y0)), np.finfo(float).tiny)
    # ||y(t)||^2, t = 1..steps, as a (1 x 2m)(2m x 1) product per row of
    # rev[:steps]'s float view: no trajectory-sized temporary, and no kernel
    # a run does not load anyway (np.einsum's code pages cost 0.1 MB of peak
    # RSS); an overflowing sum is inf, so diverged
    flat = rev[:steps].view(float)
    with np.errstate(over="ignore"):
        diverged = bool((np.sqrt(flat[:, None] @ flat[..., None]) > 1e3 * norm0).any())
    return traj, diverged
