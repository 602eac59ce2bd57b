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

    def _plan_for(self, basis: HermitianBasis):
        """The free coordinates and their vec positions (diagonal, upper,
        lower), read-only and built with the spec."""
        if basis.n_c != self.n_c:
            raise ValidationError(
                f"basis has n_c = {basis.n_c}, constraint spec has n_c = {self.n_c}")
        return self._plan

    def kept_coords(self, basis: HermitianBasis) -> np.ndarray:
        """Sorted indices of the free coordinates, as a read-only array."""
        return self._plan_for(basis)[0]

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


def assemble_constrained_system(m: np.ndarray, basis: HermitianBasis,
                                spec: ConstraintSpec, q_hist: np.ndarray, *,
                                out: np.ndarray | None = None):
    """Reduce M x = q_hist to the free real coordinates.

    Returns (M'', b_ell):  M' = M S~ with the pivot column subtracted from
    the other retained diagonal columns and then deleted; M'' additionally
    drops the zero-pattern columns; b_ell = q_hist - trace_value * (M S~)
    pivot column.  S~ has at most two nonzeros per column, so the columns of
    M S~ are gathered from M rather than multiplied out.  M'' is written
    into `out`, a complex array of its shape, when one is given.
    """
    m = as_complex_matrix(m, "M")
    if m.shape[1] != basis.dim:
        raise ValidationError(f"M has {m.shape[1]} columns, expected {basis.dim}")
    q_hist = np.asarray(q_hist, dtype=complex).ravel()
    if q_hist.size != m.shape[0]:
        raise ValidationError(f"q_hist has length {q_hist.size}, expected {m.shape[0]}")
    _, diag, upper, lower = spec._plan_for(basis)
    pivot_col = m[:, spec.pivot * (basis.n_c + 1)]
    u, lo = m[:, upper], m[:, lower]
    sym = u + lo
    # i (u - lo) in the gathered u: one large temporary fewer per step
    anti = np.multiply(np.subtract(u, lo, out=u), 1j, out=u)
    if out is None:  # C order, as the propagator's kept array: BLAS rounds by layout
        out = np.empty((m.shape[0], len(diag) + 2 * len(upper)), dtype=complex)
    m_red = np.concatenate([m[:, diag] - pivot_col[:, None], sym, anti], axis=1, out=out)
    return m_red, constrained_rhs(m, basis, spec, q_hist)


def constrained_rhs(m: np.ndarray, basis: HermitianBasis, spec: ConstraintSpec,
                    q_hist: np.ndarray) -> np.ndarray:
    """b_ell of `assemble_constrained_system`, for a complex M and a
    flat complex q_hist."""
    return q_hist - spec.trace_value * m[:, spec.pivot * (basis.n_c + 1)]


def hermitian_half(k: int):
    """The rows of vec(Q) a constrained solve keeps for a K x K Hermitian Q.

    Returns (positions, weights): the vec positions of the diagonal, then
    of the strictly upper entries in `HermitianBasis(k)` pair order, with
    weight 1 on the diagonal and sqrt(2) above it, so that for Hermitian Q
    ||Q||_F^2 = sum |w_r vec(Q)_r|^2 over these K(K+1)/2 rows.
    """
    diag, upper, _ = HermitianBasis(k).vec_positions(np.arange(k * k))
    return np.concatenate([diag, upper]), np.repeat([1.0, np.sqrt(2.0)], [k, len(upper)])


def real_half_system(m_red: np.ndarray, b_ell: np.ndarray, k: int, *,
                     out: np.ndarray | None = None):
    """The real system (A, b) of M'' x = b_ell built on `hermitian_half(k)` rows.

    m_red and b_ell hold blocks of K(K+1)/2 weighted rows each.  The real
    system takes the real part of every row and the imaginary part of the
    upper rows, in that order per block: K^2 real rows, the real
    coordinates of the block in `HermitianBasis(k)` order.  The imaginary
    parts of the diagonal rows vanish for a Hermitian-preserving M, and
    each lower row is the conjugate of its upper row, so with the sqrt(2)
    weights this system has the Gram matrix and A^T b of the stacked
    system of all 2 K^2 real rows.  A is written into `out`, a float array
    of its shape, when one is given.
    """
    h, cols = k * (k + 1) // 2, m_red.shape[1]
    blocks = m_red.reshape(-1, h, cols)
    if out is not None:
        out = out.reshape(-1, k * k, cols)
    a = np.concatenate([blocks.real, blocks[:, k:].imag], axis=1, out=out)
    return a.reshape(-1, cols), real_half_rhs(b_ell, k)


def real_half_rhs(b_ell: np.ndarray, k: int) -> np.ndarray:
    """The right-hand side of `real_half_system`, one gather from b_ell's float view."""
    b_ell = np.ascontiguousarray(b_ell, dtype=complex).reshape(-1, k * (k + 1) // 2)
    return b_ell.view(float).ravel()[_real_half_positions(k, len(b_ell))]


@functools.cache
def _real_half_positions(k: int, blocks: int) -> np.ndarray:
    w = k * (k + 1)  # per block of w floats: all real parts, then the upper rows' imaginary
    return (w * np.arange(blocks)[:, None] + np.r_[0:w:2, 2 * k + 1:w:2]).ravel()


class ConstrainedSolve(NamedTuple):
    x: np.ndarray
    residual: float
    effective_rank: int
    condition_number: float
    factor: LeastSquaresFactor


def solve_constrained(m_red: np.ndarray, b_ell: np.ndarray, r_tol: float) -> ConstrainedSolve:
    """Real least-squares solve of M'' x = b_ell, for a real system such as
    `real_half_system`'s; a complex one raises `ValidationError`.

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
        raise ValidationError("solve_constrained takes a real system: build it from "
                              "M'' and b_ell with real_half_system")
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
    The reduced densities live in one array, newest row first, so the
    stacked history is its rows 0, stride, 2*stride, ...

    A step reuses the previous step's solve while M is bitwise unchanged.
    The memory state (the stack at stride 1, the products C_m at stride > 1)
    moves on by a deterministic function of the state and E.  `step_unitary`
    returns one cached read-only array per field value, so past the field
    cutoff every step applies the same E.  On a step whose E is the
    previous step's, the state is compared bitwise before and after its
    update; if it came out unchanged, it stays unchanged for as long as E
    repeats, and so does M.  Those steps keep the factored real system (or
    the pseudoinverse) and apply it to the new right-hand side, skipping
    the state update, the assembly and the factorization, with the same
    result bit for bit.  Nothing is kept on a step whose E differs from the
    previous step's.

    The raw mode keeps all K^2 complex rows of every block and every Q.  The
    constrained mode keeps only the `hermitian_half(K)` rows, the diagonal
    and the sqrt(2)-weighted strictly upper entries of Q, in the stack and
    in the history, and solves the `real_half_system` of K^2 real rows per
    block instead of 2 K^2: for Hermitian P and Q the dropped rows repeat
    the kept ones, so the least-squares objective is unchanged.
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
        # blocks 1..ell in the making: X_0 C_j^dagger in a rebuild, X_j E^dagger
        # in a slide
        self._work = np.empty((cfg.ell, h * n, n), dtype=complex)
        if mode == "constrained":
            # M'' and the real system, rewritten by every step: fresh arrays of
            # these sizes (1.4 and 1.1 MB at N_C = 16, ell 32) cost every step
            # a round of page faults
            n_free = len(self.spec.kept_coords(self.basis))
            self._m_red = np.empty(((cfg.ell + 1) * h, n_free), dtype=complex)
            self._a = np.empty(((cfg.ell + 1) * k2, n_free))
        # the factored system of the last solve while M is bitwise its M
        # (else None), and the step unitary the last step applied
        self._solved: LeastSquaresFactor | None = None
        self._last_e = None
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
        until every seed has passed.
        """
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
        self._step_index = start_step + depth

    # -- stepping ---------------------------------------------------------

    def _memory_matrix(self) -> np.ndarray:
        """M(t), as a view of the stack that the next step overwrites.

        Builds the stack from the products C_j unless it is already current:
        at stride 1 after the first step past a warm start, and at stride > 1
        while the products are unchanged (`_advance_memory`).
        """
        n, h = self.n_c, len(self._rows)
        if not self._stack_current:
            c = self._cprods[self.cfg.stride - 1::self.cfg.stride]  # C_j, j = 1..ell
            # an overflow shows as a non-finite M, which the solve reports
            with np.errstate(over="ignore", invalid="ignore"):
                b_c = np.matmul(self._memory[0].reshape(h * n, n),
                                c.conj().transpose(0, 2, 1), out=self._work)
                np.matmul(c[:, None], b_c.reshape(-1, h, n, n), out=self._memory[1:])
            self._stack_current = self.cfg.stride == 1
        return self._memory.reshape(-1, n * n)

    def _slide_stack(self, e: np.ndarray):
        """Stride 1: X_{j+1} <- E X_j E^dagger for j < ell; X_0 stays B~.

        Two GEMMs over all blocks at once.  E^dagger acts on the contiguous
        last index.  For E on the first index the rows of every block are
        moved outermost, multiplied and moved back; blocks 1..ell, whose old
        values are no longer needed once X_j E^dagger is in `_work`, hold
        the moved rows.
        """
        n, tail, work = self.n_c, self._memory[1:], self._work
        np.matmul(self._memory[:-1].reshape(-1, n), e.conj().T, out=work.reshape(-1, n))
        np.copyto(tail.reshape(n, -1, n), work.reshape(-1, n, n).transpose(1, 0, 2))
        np.matmul(e, tail.reshape(n, -1), out=work.reshape(n, -1))
        np.copyto(tail.reshape(-1, n, n), work.reshape(n, -1, n).transpose(1, 0, 2))

    def _advance_memory(self, e: np.ndarray, compare: bool) -> bool:
        """Carry the memory state from t to t + dt with E = e: slide the stack
        at stride 1, extend the products C_m at stride > 1.

        With `compare`, returns whether the state came out bitwise equal to
        what it was, which takes one copy of it; otherwise returns False.
        An overflow is left to show as a non-finite M at the next solve.
        """
        stride1 = self.cfg.stride == 1
        state = self._memory[1:] if stride1 else self._cprods
        before = state.copy() if compare else None
        with np.errstate(over="ignore", invalid="ignore"):
            if stride1:
                self._slide_stack(e)
            elif self.cfg.depth > 0:
                # C_{m+1} = E C_m; numpy buffers the overlapping input
                np.matmul(e, self._cprods[:-1], out=self._cprods[1:])
                self._cprods[0] = e
        unchanged = compare and np.array_equal(state, before)
        if not stride1:
            # the stack built from unchanged products is still M
            self._stack_current = unchanged
        return unchanged

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
                    m_red, b_ell = assemble_constrained_system(m, self.basis, self.spec,
                                                               q_hist, out=self._m_red)
                    a, rhs = real_half_system(m_red, b_ell, self.k_orb, out=self._a)
                    x_red, residual, _, _, solved = solve_constrained(a, rhs, self.cfg.r_tol)
                else:
                    rhs = real_half_rhs(constrained_rhs(m, self.basis, self.spec, q_hist),
                                        self.k_orb)
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
        # advance history; a state that a repeated E left unchanged stays so
        repeat = e is self._last_e
        self._last_e = e
        if not repeat:
            # nothing is kept: the factor is freed before the update allocates
            # its temporaries
            solved = self._solved = None
        if self._solved is None:
            self._solved = solved if self._advance_memory(e, compare=repeat) else None
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
