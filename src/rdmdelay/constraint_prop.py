"""Constraint-preserving delay propagation of 1RDMs.

The 1RDM delay equation reconstructs the full density P(t) from a stack of
present and past reduced densities, then advances one Liouville-von Neumann
step.  Solving for P in a real Hermitian-basis coordinate system — with the
trace condition eliminated by a pivot column and identically-zero density
entries removed — makes the reconstructed P exactly Hermitian, exactly
trace-1, and exactly zero where declared, at no accuracy cost.  The raw
(unconstrained) least-squares variant is kept for comparison.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .ci_model import BTensor, CiSystem
from .delay_core import DelayConfig, factor_least_squares
from .ground_truth import step_unitaries, step_unitary
from .numkit import (
    LeastSquaresFactor,
    NumericalError,
    ValidationError,
    as_complex_matrix,
    flatten,
    hermiticity_defect,
    matexp_hermitian,  # noqa: F401  kept only for perfbench/tracing.py, which wraps it
    pinv_thresholded,  # noqa: F401  kept only for perfbench/tracing.py, which wraps it
    require_count,
    require_hermitian,
)


class HermitianBasis:
    """Real-coordinate basis S^1..S^{n^2} of the n x n Hermitian matrices.

    Enumeration: the n diagonal indicator matrices, then for each strictly
    upper pair (i, j) in row-wise order the symmetric matrix
    e_i e_j^T + e_j e_i^T, then in the same pair order the antisymmetric
    matrix i e_i e_j^T - i e_j e_i^T.  Every Hermitian Z has unique real
    coordinates x with Z = sum_j x_j S^j.
    """

    def __init__(self, n_c: int):
        if n_c < 1:
            raise ValidationError(f"n_c must be >= 1, got {n_c}")
        self.n_c = n_c
        self.pairs = [(i, j) for i in range(n_c) for j in range(i + 1, n_c)]
        # column-major vec positions of the diagonal and of each pair's (i, j), (j, i)
        self._diag_pos = np.arange(n_c) * (n_c + 1)
        self._upper_pos = np.array([i + n_c * j for i, j in self.pairs], dtype=int)
        self._lower_pos = np.array([j + n_c * i for i, j in self.pairs], dtype=int)

    @property
    def dim(self) -> int:
        return self.n_c * self.n_c

    def coords(self, z: np.ndarray) -> np.ndarray:
        """Real coordinates of a Hermitian matrix (exact, no least squares)."""
        v = flatten(z)
        off = v[self._upper_pos]
        return np.concatenate([v[self._diag_pos].real, off.real, off.imag])

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """Hermitian matrix sum_j x_j S^j from real coordinates."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValidationError(f"coordinates have shape {x.shape}, expected ({self.dim},)")
        n, n_p = self.n_c, len(self.pairs)
        off = x[n:n + n_p] + 1j * x[n + n_p:]
        v = np.zeros(n * n, dtype=complex)
        v[self._diag_pos] = x[:n]
        v[self._upper_pos] = off
        v[self._lower_pos] = off.conj()
        return v.reshape((n, n), order="F")

    def vec_positions(self, coords: np.ndarray):
        """Vec positions (diagonal, upper, lower) of the diagonal coordinates
        among `coords` and of the two entries of each pair whose real
        coordinate is among them."""
        n, n_p = self.n_c, len(self.pairs)
        pairs = coords[(coords >= n) & (coords < n + n_p)] - n
        return (self._diag_pos[coords[coords < n]], self._upper_pos[pairs],
                self._lower_pos[pairs])


@dataclass(frozen=True)
class ConstraintSpec:
    """Trace value and identically-zero entries of the full density.

    The trace condition eliminates one diagonal coordinate (the pivot,
    coordinate n_c by default, moved to the largest-index nonzero diagonal
    if that entry is a declared zero).  Declared zeros delete one coordinate
    per diagonal entry and two (real + imaginary) per off-diagonal entry.
    """

    n_c: int
    trace_value: float = 1.0
    zero_pairs: frozenset = frozenset()

    def __post_init__(self):
        tv = self.trace_value
        if isinstance(tv, bool) or not isinstance(tv, numbers.Real) or not math.isfinite(tv):
            raise ValidationError(f"trace_value must be a finite real number, got {tv!r}")
        pairs = frozenset((min(i, j), max(i, j)) for i, j in self.zero_pairs)
        object.__setattr__(self, "zero_pairs", pairs)
        for i, j in pairs:
            if not (0 <= i <= j < self.n_c):
                raise ValidationError(f"zero pair {(i, j)} out of range")
        zero_diags = {i for i, j in pairs if i == j}
        pivot_diag = self.n_c - 1
        while pivot_diag in zero_diags:
            pivot_diag -= 1
        if pivot_diag < 0:
            raise ValidationError("all diagonal entries declared zero; trace "
                                  f"{self.trace_value} is unreachable")
        object.__setattr__(self, "_pivot_diag", pivot_diag)
        # the free coordinates are those of a Hermitian matrix that is nonzero
        # everywhere but at the pivot and the declared zeros; the basis alone
        # knows their order and where their entries sit in vec(P)
        basis = HermitianBasis(self.n_c)
        upper = np.triu(np.ones((self.n_c, self.n_c)), 1)
        free = np.eye(self.n_c) + (1 + 1j) * upper + (1 - 1j) * upper.T
        for i, j in pairs:
            free[i, j] = free[j, i] = 0.0
        free[pivot_diag, pivot_diag] = 0.0
        kept = np.flatnonzero(basis.coords(free))
        plan = (kept, *basis.vec_positions(kept))
        for a in plan:
            a.flags.writeable = False
        object.__setattr__(self, "_plan", plan)

    @property
    def pivot(self) -> int:
        """Index of the trace-eliminated diagonal coordinate."""
        return self._pivot_diag

    def kept_coords(self, basis: HermitianBasis) -> np.ndarray:
        """Sorted indices of the free coordinates, as a read-only array."""
        if basis.n_c != self.n_c:
            raise ValidationError(
                f"basis has n_c = {basis.n_c}, constraint spec has n_c = {self.n_c}")
        return self._plan[0]

    def reconstruct(self, x_reduced: np.ndarray, basis: HermitianBasis) -> np.ndarray:
        """Affine map from the reduced solution back to all n_c^2 coordinates."""
        x = np.zeros(basis.dim)
        kept = self.kept_coords(basis)
        if len(x_reduced) != len(kept):
            raise ValidationError(
                f"reduced coordinate vector has length {len(x_reduced)}, "
                f"expected {len(kept)}")
        x[kept] = x_reduced
        x[self.pivot] = self.trace_value - (x[:self.n_c].sum() - x[self.pivot])
        return x


@functools.cache
def _real_half_plan(spec: ConstraintSpec, k: int, blocks: int):
    """(x, y, s, r): each block of `assemble_constrained_system`'s A is
    x + s * y, read at positions x and y of the block's rows in M's float
    view, and its b is read at positions r of b_ell's float view."""
    n, h = spec.n_c, k * (k + 1) // 2
    _, diag, upper, lower = spec._plan
    n_d, n_p = len(diag), len(upper)
    row = np.r_[0:h, k:h][:, None]  # the source row of each of a block's K^2 rows
    im = (np.arange(k * k) >= h)[:, None]  # the rows that take imaginary parts
    anti = np.repeat([False, False, True], [n_d, n_p, n_p])  # the i (u - lo) columns
    first = np.concatenate([diag, upper, upper])
    second = np.concatenate([np.full(n_d, spec.pivot * (n + 1)), lower, lower])
    # Re i (u - lo) = Im lo - Im u and Im i (u - lo) = Re u - Re lo
    swap, base = anti & ~im, row * 2 * n * n + (im ^ anti)
    x = base + 2 * np.where(swap, second, first)
    y = base + 2 * np.where(swap, first, second)
    r = (2 * h * np.arange(blocks)[:, None] + (2 * row + im).ravel()).ravel()
    return x, y, np.repeat([-1.0, 1.0, -1.0], [n_d, n_p, n_p]), r


def assemble_constrained_system(m: np.ndarray, spec: ConstraintSpec, q_hist: np.ndarray,
                                k: int, *, out: np.ndarray | None = None):
    """The real system (A, b) of M x = q_hist in the free real coordinates.

    M S~ loses its zero-pattern columns, and its pivot column is subtracted
    from the other diagonal columns and deleted; b_ell = q_hist -
    trace_value * (M S~) pivot column.  M and q_hist hold blocks of
    `hermitian_half(k)` rows, and each block of A and b keeps the real part
    of every row, then the imaginary part of the upper rows: K^2 real rows
    with the Gram matrix and A^T b of all 2 K^2 (the diagonal rows'
    imaginary parts vanish for a Hermitian-preserving M, and each lower row
    is the conjugate of an upper one).  Each column diag - pivot, u + lo or
    i (u - lo) of M S~ takes two parts of each row of M, gathered from M's
    float view straight into A, or into `out`, a C-ordered float array of
    A's shape, when one is given.
    """
    m = np.ascontiguousarray(as_complex_matrix(m, "M"))
    rows, n = m.shape[0], spec.n_c
    if m.shape[1] != n * n:
        raise ValidationError(f"M has {m.shape[1]} columns, expected {n * n}")
    q_hist = np.asarray(q_hist, dtype=complex).ravel()
    if q_hist.size != rows:
        raise ValidationError(f"q_hist has length {q_hist.size}, expected {rows}")
    h = k * (k + 1) // 2
    if not k >= 1 or rows % h:
        raise ValidationError(f"M has {rows} rows, not whole blocks of K(K+1)/2 = {h} rows")
    x, y, s, _ = _real_half_plan(spec, k, rows // h)
    if out is None:  # C order, as the propagator's kept array: BLAS rounds by layout
        out = np.empty((rows // h * k * k, len(s)))
    m_float = m.view(float).reshape(rows // h, -1)
    a = out.reshape(rows // h, k * k, len(s))
    # every position is in range; "clip" lets take write into `out` unbuffered
    np.take(m_float, x, axis=1, out=a, mode="clip")
    second = np.take(m_float, y, axis=1, mode="clip")
    # a sign of +-1 is exact, and x + (-y) is x - y bit for bit
    np.add(a, np.multiply(second, s, out=second), out=a)
    return out, constrained_rhs(m, spec, q_hist, k)


def constrained_rhs(m: np.ndarray, spec: ConstraintSpec, q_hist: np.ndarray,
                    k: int) -> np.ndarray:
    """b of `assemble_constrained_system`, for a complex M and a flat
    complex q_hist."""
    b_ell = q_hist - spec.trace_value * m[:, spec.pivot * (spec.n_c + 1)]
    return b_ell.view(float)[_real_half_plan(spec, k, len(b_ell) // (k * (k + 1) // 2))[3]]


def hermitian_half(k: int):
    """The rows of vec(Q) a constrained solve keeps for a K x K Hermitian Q.

    Returns (positions, weights): the vec positions of the diagonal, then
    of the strictly upper entries in `HermitianBasis(k)` pair order, with
    weight 1 on the diagonal and sqrt(2) above it, so that for Hermitian Q
    ||Q||_F^2 = sum |w_r vec(Q)_r|^2 over these K(K+1)/2 rows.
    """
    diag, upper, _ = HermitianBasis(k).vec_positions(np.arange(k * k))
    return np.concatenate([diag, upper]), np.repeat([1.0, np.sqrt(2.0)], [k, len(upper)])


class ConstrainedSolve(NamedTuple):
    x: np.ndarray
    residual: float
    effective_rank: int
    condition_number: float
    factor: LeastSquaresFactor


def solve_constrained(m_red: np.ndarray, b_ell: np.ndarray, r_tol: float) -> ConstrainedSolve:
    """Real least-squares solve of M'' x = b_ell, for a real system such as
    `assemble_constrained_system`'s; a complex one raises `ValidationError`.

    The real solution makes the reconstructed density exactly Hermitian.
    `factor_least_squares` solves a well-conditioned step from the normal
    equations, keeping every column, so the rank is the column count;
    every other step (an ill-conditioned or rank-deficient system, one
    with fewer rows than columns, or r_tol close to 1/cond) forms the
    thresholded pseudoinverse.  Returns (x, ||M'' x - b_ell||, rank,
    condition number, factor), where `factor` solves the system again for
    another right-hand side.
    """
    if np.iscomplexobj(m_red) or np.iscomplexobj(b_ell):
        raise ValidationError("solve_constrained takes a real system: build it "
                              "with assemble_constrained_system")
    factor = factor_least_squares(m_red, r_tol)
    x = factor.solve(b_ell)
    return ConstrainedSolve(x, factor.residual(x, b_ell), factor.effective_rank,
                            factor.condition_number, factor)


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics of the delay solve."""

    step: int
    t: float
    residual: float
    effective_rank: int
    condition_number: float
    trace_q: float
    hermiticity_defect_q: float
    min_eig_p: float

    CSV_HEADER = "step,t,residual,effective_rank,condition_number,trace_q,hermiticity_defect,min_eig_p"

    def csv_row(self) -> str:
        return (f"{self.step},{self.t:.17g},{self.residual:.17g},"
                f"{self.effective_rank},{self.condition_number:.17g},"
                f"{self.trace_q:.17g},{self.hermiticity_defect_q:.17g},"
                f"{self.min_eig_p:.17g}")


# blocks of the memory stack that a rebuild multiplies by C_j per call:
# numpy copies that many blocks of the overlapping input, 0.16 MB at
# N_C = 16, K = 4, in 8 calls at ell 32
_REBUILD_CHUNK = 4


class DelayPropagator:
    """Strided-memory delay propagation of Q(t) for a TDCI system.

    The memory window spans ell * stride steps; the state must be warm-started
    with the ell*stride + 1 reduced densities Q(0) .. Q(ell*stride*dt) (ground
    truth, per the standard experimental procedure) before stepping.

    The memory matrix M is kept as a stack of blocks X_j = C_j B_r C_j^dagger,
    j = 0..ell, where C_j is the product of the last j*stride step unitaries.
    At stride 1 the stack slides: X_{j+1}(t+dt) = E X_j(t) E^dagger with
    E = exp(-i H(t) dt), so after the first step past a warm start each step
    moves the stack by one frame change (two GEMMs over all blocks) instead
    of rebuilding it.  At stride > 1 the block one step back belongs to
    another residue class t mod stride, so the stack is rebuilt every step
    from the products C_j; sliding there would need one stack per class.
    Only the slide needs scratch the size of the stack (`_work`); a rebuild
    works in place, so a propagator at stride > 1 keeps no such buffer.
    The reduced densities live in one array, newest row first, so the
    stacked history is its rows 0, stride, 2*stride, ...

    A step reuses the previous step's solve once M has stopped changing.
    M(t) is built from the last depth = ell * stride step unitaries alone,
    and `step_unitary` returns one cached read-only array per field value,
    so past the field cutoff every step applies the same E.  `_run` counts
    the consecutive steps since the last `warm_start` that applied the same
    array.  Once it exceeds depth, the memory state (the stack at stride 1,
    the products C_m at stride > 1) has had depth updates by that E alone,
    each a deterministic function of the state and E: one more would leave M
    bitwise as it is.  Such a step keeps its factor (Cholesky or
    pseudoinverse) and skips the update; the next steps apply the factor to
    the new right-hand side, with the result of a fresh solve bit for bit.
    At ell 0 M is the rows of B~ alone, so a run factors once.

    The raw mode keeps all K^2 complex rows of every block and every Q and
    solves for all of vec(P), so it takes only the default spec.  The
    constrained mode keeps only the `hermitian_half(K)` rows, the diagonal
    and the sqrt(2)-weighted strictly upper entries of Q, in the stack and
    in the history, and a fresh step assembles the real system of K^2 real
    rows per block (`assemble_constrained_system`) in one pass instead of
    2 K^2: for Hermitian P and Q the dropped rows repeat the kept ones, so
    the least-squares objective is unchanged.
    """

    def __init__(self, system: CiSystem, b: BTensor, cfg: DelayConfig, dt: float,
                 mode: str = "constrained", spec: ConstraintSpec | None = None):
        if not 0 < dt < np.inf:
            raise ValidationError(f"dt must be positive and finite, got {dt}")
        if mode not in ("constrained", "raw"):
            raise ValidationError(f"mode must be 'constrained' or 'raw', got {mode!r}")
        if b.n_configs != system.n_configs or b.n_orbitals != system.n_orbitals:
            raise ValidationError("B tensor does not match the system dimensions")
        self.system = system
        self.b = b
        self.cfg = cfg
        self.dt = dt
        self.mode = mode
        self.n_c = system.n_configs
        self.k_orb = system.n_orbitals
        self.basis = HermitianBasis(self.n_c) if mode == "constrained" else None
        self.spec = spec if spec is not None else ConstraintSpec(self.n_c)
        if self.spec.n_c != self.n_c:
            raise ValidationError("constraint spec dimension mismatch")
        if mode == "raw" and (self.spec.zero_pairs or self.spec.trace_value != 1):
            raise ValidationError("raw mode takes no declared zeros and no trace but 1")
        self.b_tilde = b.matricized
        depth, n, k2 = cfg.depth, self.n_c, self.k_orb ** 2
        # the rows of vec(Q) that the stack and the history keep, and their weights
        if mode == "constrained":
            self._rows, self._weights = hermitian_half(self.k_orb)
        else:
            self._rows, self._weights = np.arange(k2), np.ones(k2)
        h = len(self._rows)
        self._q_hist = np.empty((depth + 1, h), dtype=complex)  # kept rows, newest first
        # _cprods[m-1] = C_m(t), the product of the last m step unitaries; at
        # stride 1 it is only read for the first stack after a warm start
        self._cprods = np.empty((depth, n, n), dtype=complex)
        # _memory[j, r] = C_j B_r C_j^dagger with B_r the r-th kept (weighted)
        # row of B~ read row-major; reshaped to ((ell+1) h, N_C^2) the stack
        # is the memory matrix M
        self._memory = np.empty((cfg.ell + 1, h, n, n), dtype=complex)
        self._memory[0] = (self._weights[:, None] * self.b_tilde[self._rows]).reshape(h, n, n)
        self._stack_current = False  # _memory holds M(t) for the next step
        # blocks 1..ell of a slide in the making, X_j E^dagger and then E X_j
        # E^dagger; a rebuild works in place, so only stride 1 needs them
        if cfg.stride == 1:
            self._work = np.empty((cfg.ell, h * n, n), dtype=complex)
        if mode == "constrained":
            # the real system, rewritten by every fresh step: a new array of
            # this size (1.1 MB at N_C = 16, ell 32) costs every step a round
            # of page faults
            n_free = len(self.spec.kept_coords(self.basis))
            self._a = np.empty(((cfg.ell + 1) * k2, n_free))
        # the factored system of the last solve while M is bitwise its M
        # (else None), the step unitary the last step applied, and the count
        # of consecutive steps since the warm start that applied it
        self._solved: LeastSquaresFactor | None = None
        self._last_e = None
        self._run = 0
        self._step_index = None
        self.records: list[StepRecord] = []

    def _kept(self, vec_q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The kept, weighted rows of vec(Q) (last axis), into `out` if given."""
        return np.multiply(vec_q[..., self._rows], self._weights, out=out)

    # -- warm start -------------------------------------------------------

    def warm_start(self, q_seed: Sequence[np.ndarray], start_step: int = 0):
        """Seed the history with Q at steps start_step .. start_step + ell*k.

        Also forms the products of the step unitaries interior to the seed
        window, so that the first memory stack is available immediately.
        The unitaries come from one `ground_truth.step_unitaries` call, so
        those the ground truth has already computed on the same system and
        dt are reused rather than computed again.  Any solve kept for reuse
        is dropped.  In constrained mode every seed
        must be finite and Hermitian (`numkit.require_hermitian`), since
        only its diagonal and upper triangle are kept; nothing is written
        until every seed has passed.  start_step must be an integer >= 0.
        """
        require_count("start_step", start_step, 0)
        depth = self.cfg.depth
        if len(q_seed) != depth + 1:
            raise ValidationError(
                f"warm start needs {depth + 1} reduced densities, got {len(q_seed)}")
        seed = []
        for q in q_seed:
            q = as_complex_matrix(q, "Q")
            if q.shape != (self.k_orb, self.k_orb):
                raise ValidationError(f"seed Q has shape {q.shape}")
            seed.append(q)
        seed = np.stack(seed)
        if self.mode == "constrained":
            require_hermitian(seed, name="seed Q")
        # vec of each seed Q, column-major
        self._q_hist[::-1] = self._kept(seed.transpose(0, 2, 1).reshape(depth + 1, -1))
        # forward products C_m = E(t - dt) ... E(t - m dt), newest factor left
        units = step_unitaries(
            self.system, [(start_step + depth - 1 - m) * self.dt for m in range(depth)],
            self.dt)
        acc = np.eye(self.n_c)
        for e, c_m in zip(units, self._cprods):
            acc = np.matmul(acc, e, out=c_m)
        self._stack_current = False
        self._solved = self._last_e = None
        self._run = 0
        self._step_index = start_step + depth

    # -- stepping ---------------------------------------------------------

    def _memory_matrix(self) -> np.ndarray:
        """M(t), as a view of the stack that the next step overwrites.

        Builds the stack from the products C_j unless it is already current:
        at stride 1 after the first step past a warm start, and at stride > 1
        until `_advance_memory` next updates the products.  The build writes
        X_0 C_j^dagger into block j, then multiplies C_j in place,
        `_REBUILD_CHUNK` blocks at a time, so that numpy's copy of the
        overlapping input is one chunk, not the stack.
        """
        n, h = self.n_c, len(self._rows)
        if not self._stack_current:
            c = self._cprods[self.cfg.stride - 1::self.cfg.stride]  # C_j, j = 1..ell
            tail = self._memory[1:]
            # an overflow shows as a non-finite M, which the solve reports
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(self._memory[0].reshape(h * n, n), c.conj().transpose(0, 2, 1),
                          out=tail.reshape(-1, h * n, n))
                for j in range(0, len(c), _REBUILD_CHUNK):
                    chunk = tail[j:j + _REBUILD_CHUNK]
                    np.matmul(c[j:j + _REBUILD_CHUNK, None], chunk, out=chunk)
            self._stack_current = True
        return self._memory.reshape(-1, n * n)

    def _advance_memory(self, e: np.ndarray):
        """Carry the memory state from t to t + dt with E = e.  At stride 1
        the stack slides, X_{j+1} <- E X_j E^dagger for j < ell (X_0 stays
        B~), by two GEMMs over all blocks: E^dagger acts on the contiguous
        last index; for E the rows of every block are moved outermost into
        blocks 1..ell (free once X_j E^dagger is in `_work`), multiplied and
        moved back.  At stride > 1 the products C_m are extended, and the
        stack is rebuilt from them.  An overflow shows as a non-finite M."""
        n, tail = self.n_c, self._memory[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            if self.cfg.stride == 1:
                work = self._work
                np.matmul(self._memory[:-1].reshape(-1, n), e.conj().T, out=work.reshape(-1, n))
                np.copyto(tail.reshape(n, -1, n), work.reshape(-1, n, n).transpose(1, 0, 2))
                np.matmul(e, tail.reshape(n, -1), out=work.reshape(n, -1))
                np.copyto(tail.reshape(-1, n, n), work.reshape(n, -1, n).transpose(1, 0, 2))
            else:
                # C_{m+1} = E C_m; numpy buffers the overlapping input
                np.matmul(e, self._cprods[:-1], out=self._cprods[1:])
                self._cprods[0] = e
                self._stack_current = False

    def _stacked_history(self) -> np.ndarray:
        """The kept rows of vec Q(t), vec Q(t - stride dt), ...,
        vec Q(t - ell stride dt); at stride 1 a view of the history, which
        the next step overwrites."""
        return self._q_hist[::self.cfg.stride].ravel()

    def _solve_stage_error(self, t: float, what: str) -> NumericalError:
        return NumericalError(f"step {self._step_index + 1} (t = {t:.6g}): the "
                              f"{self.mode} solve stage {what}")

    def step(self) -> np.ndarray:
        """Advance one step: reconstruct P(t), apply the superoperator, emit Q(t+dt)."""
        if self._step_index is None:
            raise ValidationError("propagator is not warm-started")
        t = self._step_index * self.dt
        solved = self._solved  # a factor of this step's M, if it is kept
        m = self._memory_matrix()
        q_hist = self._stacked_history()
        # a non-finite system makes the gate raise NumericalError and the
        # SVD raise LinAlgError; both are reported with the step
        try:
            if self.mode == "constrained":
                if solved is None:
                    a, rhs = assemble_constrained_system(m, self.spec, q_hist, self.k_orb,
                                                         out=self._a)
                    x_red, residual, _, _, solved = solve_constrained(a, rhs, self.cfg.r_tol)
                else:
                    rhs = constrained_rhs(m, self.spec, q_hist, self.k_orb)
                    x_red = solved.solve(rhs)
                    residual = solved.residual(x_red, rhs)
                x = self.spec.reconstruct(x_red, self.basis)
                p_hat = self.basis.matrix(x)
            else:
                if solved is None:
                    solved = factor_least_squares(m, self.cfg.r_tol)
                vec_p = solved.solve(q_hist)
                residual = solved.residual(vec_p, q_hist)
                p_hat = vec_p.reshape((self.n_c, self.n_c), order="F")
        except (NumericalError, np.linalg.LinAlgError) as exc:
            raise self._solve_stage_error(t, f"failed: {exc}") from exc
        if not np.isfinite(p_hat).all():
            raise self._solve_stage_error(t, "produced non-finite values")
        e = step_unitary(self.system, t, self.dt)
        p_next = e @ p_hat @ e.conj().T
        q_next_vec = self.b_tilde @ p_next.ravel(order="F")
        q_next = q_next_vec.reshape((self.k_orb, self.k_orb), order="F")
        rank, cond = solved.effective_rank, solved.condition_number
        # advance history; past depth + 1 steps of one E, M stays as it is
        self._run = self._run + 1 if e is self._last_e else 1
        self._last_e = e
        if self._run > self.cfg.depth:
            self._solved = solved
        else:
            # the factor is freed before the update allocates its temporaries
            solved = self._solved = None
            self._advance_memory(e)
        self._q_hist[1:] = self._q_hist[:-1]
        self._kept(q_next_vec, out=self._q_hist[0])
        self._step_index += 1
        # a constrained P-hat is exactly Hermitian: (P + P^dagger) / 2 is P bit for bit
        p_sym = p_hat if self.mode == "constrained" else (p_hat + p_hat.conj().T) / 2
        min_eig = float(np.linalg.eigvalsh(p_sym).min())
        self.records.append(StepRecord(
            step=self._step_index, t=t, residual=residual, effective_rank=rank,
            condition_number=cond, trace_q=float(q_next.trace().real),
            hermiticity_defect_q=hermiticity_defect(q_next),
            min_eig_p=min_eig))
        self.last_p_hat = p_hat
        return q_next


def run_delay_propagation(system: CiSystem, b: BTensor, dt: float, n_steps: int,
                          cfg: DelayConfig, q_true, mode: str = "constrained",
                          spec: ConstraintSpec | None = None):
    """Full trajectory: warm start from ground truth, then the delay equation.

    `q_true` supplies at least the first ell*stride + 1 reference 1RDMs.
    Returns (q_series, records) with q_series[j] = Q(j dt) for j = 0..n_steps;
    the warm-start segment is copied from the reference.
    """
    depth = cfg.depth
    if n_steps < depth:
        raise ValidationError(f"n_steps = {n_steps} shorter than memory depth {depth}")
    if len(q_true) < depth + 1:
        raise ValidationError("reference series shorter than the warm-start window")
    prop = DelayPropagator(system, b, cfg, dt, mode=mode, spec=spec)
    prop.warm_start([np.asarray(q_true[j]) for j in range(depth + 1)])
    series = [np.asarray(q_true[j], dtype=complex) for j in range(depth + 1)]
    for _ in range(n_steps - depth):
        series.append(prop.step())
    return np.asarray(series), prop.records


def suggest_zero_pattern(coefficients: np.ndarray, threshold: float = 1e-12) -> frozenset:
    """Propose density zero pairs from CI coefficients that never activate.

    A coefficient j with max_t |a_j(t)| < threshold forces row and column j
    of P(t) = a a† to vanish identically.  The proposal is advisory; it is
    applied only when passed explicitly into a ConstraintSpec.
    """
    amp = np.abs(np.asarray(coefficients, dtype=complex)).max(axis=0)
    dead = [int(j) for j in np.nonzero(amp < threshold)[0]]
    n_c = amp.size
    pairs = set()
    for j in dead:
        for i in range(n_c):
            pairs.add((min(i, j), max(i, j)))
    return frozenset(pairs)


def schur_rank_check(b_tilde: np.ndarray, d1: np.ndarray, r_tol: float = 1e-12) -> dict:
    """Sufficient-rank diagnostic for the one-block memory matrix [B~; D1].

    Selects K^2 columns G of B~ by pivoted QR, forms the Schur complement
    D1^{-G} - D1^G (B~^G)^{-1} B~^{-G}, and reports whether it has full row
    rank K^2 — the sufficient condition for rank([B~; D1]) = 2 K^2.  The
    direct SVD rank of the stack is reported alongside as a cross-check.
    The check is a report, not a certificate, for deeper memory stacks.
    """
    b_tilde = as_complex_matrix(b_tilde, "B~")
    d1 = as_complex_matrix(d1, "D1")
    if d1.shape != b_tilde.shape:
        raise ValidationError("B~ and D1 must have the same shape")
    k2, n2 = b_tilde.shape
    if 2 * k2 > n2:
        raise ValidationError(f"need 2 K^2 <= N_C^2, got {2 * k2} > {n2}")
    sv_b = np.linalg.svd(b_tilde, compute_uv=False)
    if sv_b[-1] <= r_tol * sv_b[0]:
        raise NumericalError("B~ is not full row rank")
    _, _, piv = scipy.linalg.qr(b_tilde, pivoting=True)
    g, rest = piv[:k2], piv[k2:]
    bg = b_tilde[:, g]
    schur = d1[:, rest] - d1[:, g] @ np.linalg.solve(bg, b_tilde[:, rest])
    sv = np.linalg.svd(schur, compute_uv=False)
    # threshold against the scale of the inputs, not of the (possibly zero)
    # complement itself
    schur_rank = int(np.sum(sv > r_tol * max(sv_b[0], np.linalg.norm(d1, 2))))
    stacked = np.vstack([b_tilde, d1])
    sv_m = np.linalg.svd(stacked, compute_uv=False)
    stack_rank = int(np.sum(sv_m > r_tol * sv_m[0]))
    return {
        "columns": [int(j) for j in g],
        "schur_rank": schur_rank,
        "condition_holds": schur_rank == k2,
        "stack_rank_svd": stack_rank,
        "full_rank": stack_rank == 2 * k2,
    }
