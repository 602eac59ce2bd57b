import numpy as np
import pytest

from rdmdelay.ci_model import FieldProfile, build_B
from rdmdelay.constraint_prop import (
    ConstraintSpec,
    DelayPropagator,
    HermitianBasis,
    StepRecord,
    assemble_constrained_system,
    run_delay_propagation,
    schur_rank_check,
    solve_constrained,
    suggest_zero_pattern,
)
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import (
    propagate_coefficients,
    reduced_density_series,
    step_unitary,
)
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import (
    NumericalError,
    ValidationError,
    flatten,
    random_hermitian,
    random_unitary,
)

rng = np.random.default_rng(4114)


def _dense_s_tilde(n):
    """Reference S~: column j is vec(S^j), built from the enumeration rule."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for phase in (1.0, 1j):
        for i, j in pairs:
            e = np.zeros((n, n), dtype=complex)
            e[i, j], e[j, i] = phase, np.conj(phase)
            mats.append(e)
    return np.column_stack([flatten(e) for e in mats])


def _basis_matrices(basis):
    return [basis.matrix(e_j) for e_j in np.eye(basis.dim)]


def test_basis_n2_explicit():
    mats = _basis_matrices(HermitianBasis(2))
    assert len(mats) == 4
    assert np.array_equal(mats[0], [[1, 0], [0, 0]])
    assert np.array_equal(mats[1], [[0, 0], [0, 1]])
    assert np.array_equal(mats[2], [[0, 1], [1, 0]])
    assert np.array_equal(mats[3], [[0, 1j], [-1j, 0]])


def test_basis_n3_orthogonal():
    s_tilde = np.column_stack([flatten(e) for e in _basis_matrices(HermitianBasis(3))])
    assert s_tilde.shape == (9, 9)
    # <S^i, S^j> = tr(S^i^dagger S^j) = the inner product of the vec columns
    gram = (s_tilde.conj().T @ s_tilde).real
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-14


def test_basis_round_trip_exact():
    basis = HermitianBasis(4)
    z = random_hermitian(4, rng)
    x = basis.coords(z)
    assert x.dtype == np.float64
    assert np.array_equal(flatten(basis.matrix(x)), flatten(z))
    assert np.array_equal(basis.matrix(x), z)
    assert np.array_equal(np.column_stack([flatten(e) for e in _basis_matrices(basis)]),
                          _dense_s_tilde(4))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_basis_matrix_scatter_equals_dense_product(n):
    basis = HermitianBasis(n)
    s_tilde = _dense_s_tilde(n)
    local = np.random.default_rng(n)
    for _ in range(5):
        x = local.standard_normal(n * n)
        assert np.array_equal(flatten(basis.matrix(x)), s_tilde @ x)
    with pytest.raises(ValidationError):
        basis.matrix(np.zeros(n * n + 1))


def test_constraint_spec_column_counts():
    basis2 = HermitianBasis(2)
    m = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    m_red, _ = assemble_constrained_system(m, basis2, ConstraintSpec(2), np.zeros(8))
    assert m_red.shape == (8, 3)

    # row/column 2 of P forced to zero: 1 diagonal + 3 complex off-diagonal
    # pairs = 7 removed real coordinates
    basis4 = HermitianBasis(4)
    zeros = frozenset({(1, j) for j in range(4)})
    spec = ConstraintSpec(4, zero_pairs=zeros)
    m16 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    m_red, _ = assemble_constrained_system(m16, basis4, spec, np.zeros(8))
    assert m_red.shape == (8, 16 - 1 - 7)


def test_reconstruct_consistent_data_exactly():
    basis = HermitianBasis(4)
    zeros = frozenset({(1, j) for j in range(4)})
    spec = ConstraintSpec(4, trace_value=1.0, zero_pairs=zeros)
    local = np.random.default_rng(4114)
    for _ in range(20):
        # a Hermitian matrix satisfying the declared constraints exactly:
        # entries are multiples of 1/8, so the trace, and the pivot entry
        # that reconstruct recomputes from it, are exact in floating point
        a = (local.integers(-16, 17, (4, 4)) + 1j * local.integers(-16, 17, (4, 4))) / 8
        p = a + a.conj().T
        p[1, :] = 0.0
        p[:, 1] = 0.0
        p[0, 0] += 1.0 - np.trace(p).real
        x_full = basis.coords(p)
        x_red = x_full[spec.kept_coords(basis)]
        x_back = spec.reconstruct(x_red, basis)
        assert np.array_equal(basis.matrix(x_back), p)


def _stacked(m_red, b_ell):
    """The real system of the real and imaginary parts of every row of a
    complex M'' x = b_ell, which `solve_constrained` takes."""
    return np.vstack([m_red.real, m_red.imag]), np.concatenate([b_ell.real, b_ell.imag])


def test_constrained_solve_recovers_planted_p():
    basis = HermitianBasis(3)
    spec = ConstraintSpec(3, trace_value=1.0)
    p = random_hermitian(3, rng)
    p += np.eye(3) * (1.0 - np.trace(p).real) / 3.0
    m = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    q_hist = m @ flatten(p)
    m_red, b_ell = assemble_constrained_system(m, basis, spec, q_hist)
    x, residual, rank, cond, _ = solve_constrained(*_stacked(m_red, b_ell), 1e-12)
    p_hat = basis.matrix(spec.reconstruct(x, basis))
    assert np.max(np.abs(p_hat - p)) < 1e-10
    assert np.max(np.abs(p_hat - p_hat.conj().T)) == 0.0
    assert abs(np.trace(p_hat).real - 1.0) < 1e-14
    assert residual < 1e-10
    assert rank == 8  # N_C^2 - 1 retained real coordinates


def test_pivot_moves_past_declared_zero_diagonal():
    # when the last diagonal entry is itself declared zero the trace pivot
    # must fall back to another retained diagonal coordinate
    spec = ConstraintSpec(3, zero_pairs=frozenset({(2, 2)}))
    basis = HermitianBasis(3)
    p = random_hermitian(3, rng)
    p[2, :] = 0.0
    p[:, 2] = 0.0
    p[0, 0] += 1.0 - np.trace(p).real
    m = rng.standard_normal((10, 9)) + 1j * rng.standard_normal((10, 9))
    m_red, b_ell = assemble_constrained_system(m, basis, spec, m @ flatten(p))
    x = solve_constrained(*_stacked(m_red, b_ell), 1e-12).x
    p_hat = basis.matrix(spec.reconstruct(x, basis))
    assert np.max(np.abs(p_hat - p)) < 1e-10


def _kept_from_enumeration(spec):
    """Reference free coordinates from the enumeration rule: all but the
    pivot and the one or two coordinates of each declared zero."""
    n = spec.n_c
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drop = {spec.pivot}
    for i, j in spec.zero_pairs:
        if i == j:
            drop.add(i)
        else:
            k = pairs.index((i, j))
            drop |= {n + k, n + len(pairs) + k}
    return [c for c in range(n * n) if c not in drop]


def _reconstruct_from_list(spec, x_reduced, basis):
    """Reference reconstruction, indexing with the enumerated kept list."""
    x = np.zeros(basis.dim)
    x[_kept_from_enumeration(spec)] = x_reduced
    x[spec.pivot] = spec.trace_value - (np.sum(x[:spec.n_c]) - x[spec.pivot])
    return x


def _assemble_dense(m, basis, spec, q_hist):
    """Reference assembly: the dense product M S~, then a loop over columns."""
    ms = m @ _dense_s_tilde(basis.n_c)
    pivot_col = ms[:, spec.pivot].copy()
    cols = [ms[:, j] - pivot_col if j < spec.n_c else ms[:, j]
            for j in _kept_from_enumeration(spec)]
    m_red = np.column_stack(cols) if cols else np.zeros((m.shape[0], 0), dtype=complex)
    return m_red, q_hist - spec.trace_value * pivot_col


@pytest.mark.parametrize("zeros", [
    frozenset(),
    frozenset({(1, j) for j in range(4)} | {(0, 3)}),
    frozenset({(3, 3), (2, 3)}),  # the pivot moves past a zero diagonal
], ids=["default", "declared-zeros", "pivot-moves"])
def test_gathered_assembly_matches_dense_product(zeros):
    n = 4
    spec = ConstraintSpec(n, zero_pairs=zeros)
    basis = HermitianBasis(n)
    m = rng.standard_normal((24, n * n)) + 1j * rng.standard_normal((24, n * n))
    q_hist = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    m_red, b_ell = assemble_constrained_system(m, basis, spec, q_hist)
    m_ref, b_ref = _assemble_dense(m, basis, spec, q_hist)
    # S~ holds only 0, 1 and +-1j, so both assemblies round alike
    assert np.array_equal(m_red, m_ref)
    assert np.array_equal(b_ell, b_ref)
    x = solve_constrained(*_stacked(m_red, b_ell), 1e-12).x
    x_full = spec.reconstruct(x, basis)
    assert np.array_equal(x_full, _reconstruct_from_list(spec, x, basis))
    # the spec builds its plan once; the plan is read-only
    kept = spec.kept_coords(basis)
    assert spec.kept_coords(HermitianBasis(n)) is kept and not kept.flags.writeable
    assert kept.tolist() == _kept_from_enumeration(spec)
    p_hat = basis.matrix(x_full)
    for i, j in zeros:
        assert p_hat[i, j] == 0.0 and p_hat[j, i] == 0.0
    assert np.trace(p_hat).real == pytest.approx(1.0, abs=1e-14)


def test_basis_of_another_size_is_rejected():
    # ConstraintSpec(3) with HermitianBasis(4) would otherwise assemble a
    # 15-column system around pivot coordinate 2
    spec, basis = ConstraintSpec(3), HermitianBasis(4)
    m = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    with pytest.raises(ValidationError, match="n_c = 4.*n_c = 3"):
        spec.kept_coords(basis)
    with pytest.raises(ValidationError, match="n_c = 4.*n_c = 3"):
        spec.reconstruct(np.zeros(8), basis)
    with pytest.raises(ValidationError, match="n_c = 4.*n_c = 3"):
        assemble_constrained_system(m, basis, spec, np.zeros(8))


def test_step_record_csv_row_round_trip():
    rec = StepRecord(step=3, t=0.25, residual=1e-9, effective_rank=15,
                     condition_number=123.5, trace_q=2.0,
                     hermiticity_defect_q=0.0, min_eig_p=-1e-12)
    fields = rec.csv_row().split(",")
    assert len(fields) == len(StepRecord.CSV_HEADER.split(","))
    assert int(fields[0]) == 3
    assert float(fields[2]) == 1e-9
    assert float(fields[4]) == 123.5


def test_delay_propagation_tracks_ground_truth():
    s = generate_synthetic_system(4, 2, seed=3)
    b = build_B(s)
    dt, n = 0.08268, 300
    run = propagate_coefficients(s, dt, n)
    q_true = reduced_density_series(run, b)
    qs, records = run_delay_propagation(s, b, dt, n, DelayConfig(ell=12), q_true)
    assert qs.shape == q_true.shape
    assert np.max(np.abs(qs[13:] - q_true[13:])) < 1e-9
    assert all(r.effective_rank == 15 for r in records)
    # constrained mode keeps the physical invariants to machine precision
    assert max(abs(r.trace_q - 2.0) for r in records) < 1e-12
    assert max(r.hermiticity_defect_q for r in records) < 1e-12


def test_raw_and_constrained_agree_when_well_posed():
    s = generate_synthetic_system(4, 2, seed=3)
    b = build_B(s)
    dt, n = 0.08268, 200
    run = propagate_coefficients(s, dt, n)
    q_true = reduced_density_series(run, b)
    q_con, _ = run_delay_propagation(s, b, dt, n, DelayConfig(ell=12), q_true,
                                     mode="constrained")
    q_raw, _ = run_delay_propagation(s, b, dt, n, DelayConfig(ell=12), q_true,
                                     mode="raw")
    assert np.max(np.abs(q_con - q_raw)) < 1e-8


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_non_finite_history_raises_numerical_error(mode):
    s = generate_synthetic_system(4, 2, seed=3)
    b = build_B(s)
    dt, cfg = 0.08268, DelayConfig(ell=4)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + 2), b)
    prop = DelayPropagator(s, b, cfg, dt, mode=mode)
    prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    prop.step()
    prop._q_hist[0, 1] = np.nan  # the newest Q
    with pytest.raises(NumericalError, match=rf"step {cfg.depth + 2} .*{mode} solve stage"):
        prop.step()
    assert len(prop.records) == 1


# an infinite product must give the step's NumericalError and no warning
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["constrained", "raw"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_memory_block_raises_numerical_error(mode, bad):
    # the constrained gate and the raw SVD each meet the bad block first
    s = generate_synthetic_system(4, 2, seed=3)
    b = build_B(s)
    dt, cfg = 0.08268, DelayConfig(ell=4)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth), b)
    prop = DelayPropagator(s, b, cfg, dt, mode=mode)
    prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    prop._cprods[1, 0, 0] = bad  # C_2: memory block 2 of the first step
    with pytest.raises(NumericalError,
                       match=rf"step {cfg.depth + 1} .*{mode} solve stage failed"):
        prop.step()
    assert not prop.records


def test_zero_field_propagation_not_constant_but_exact():
    # H0 is still on, so Q moves; the scheme must track it
    s = generate_synthetic_system(4, 2, seed=6, field=FieldProfile())
    b = build_B(s)
    dt, n = 0.08268, 200
    a0 = np.full(4, 0.5, dtype=complex)
    run = propagate_coefficients(s, dt, n, a0=a0)
    q_true = reduced_density_series(run, b)
    qs, _ = run_delay_propagation(s, b, dt, n, DelayConfig(ell=12), q_true)
    assert np.max(np.abs(qs[13:] - q_true[13:])) < 1e-9


def test_suggest_zero_pattern_finds_decoupled_config():
    s = generate_synthetic_system(4, 2, seed=2)
    run = propagate_coefficients(s, 0.08268, 50)
    coeffs = run.coefficients.copy()
    coeffs[:, 2] = 0.0
    pattern = suggest_zero_pattern(coeffs)
    assert (2, 2) in pattern
    assert all((2 in pair) for pair in pattern)


def test_schur_rank_check_identity_propagator_fails():
    oe_sys = generate_synthetic_system(4, 2, seed=8)
    bt = build_B(oe_sys).matricized
    report = schur_rank_check(bt, bt)  # repeated block carries no new rows
    assert report["schur_rank"] == 0
    assert not report["condition_holds"]


def test_schur_rank_check_generic_propagator_holds():
    s = generate_synthetic_system(4, 2, seed=8)
    bt = build_B(s).matricized
    e = random_unitary(4, rng)
    d1 = bt @ np.kron(e.T, e.conj())
    report = schur_rank_check(bt, d1)
    assert report["condition_holds"]
    assert report["stack_rank_svd"] == 8


def test_schur_rank_check_implication_over_random_instances():
    s = generate_synthetic_system(4, 2, seed=8)
    bt = build_B(s).matricized
    local = np.random.default_rng(99)
    for _ in range(50):
        e = random_unitary(4, local)
        d1 = bt @ np.kron(e.T, e.conj())
        report = schur_rank_check(bt, d1)
        if report["condition_holds"]:
            assert report["stack_rank_svd"] == 2 * 4


class _ProductPropagator(DelayPropagator):
    """Reference: every step rebuilds the memory stack from its own products
    C_m of the last m step unitaries, formed as ``acc @ E`` over the warm-start
    window and then by C_{m+1} = E C_m, with the batched blocks of
    `DelayPropagator._memory_matrix`.  It never slides a stack, and never
    reuses a solve: every step factors its own M.  Its blocks hold the
    engine's row set: the kept, weighted rows of B~ (all K^2 rows with
    weight 1 in raw mode)."""

    def _b_rows(self):
        return self._weights[:, None] * self.b_tilde[self._rows]

    def warm_start(self, q_seed, start_step=0):
        super().warm_start(q_seed, start_step)
        depth = self.cfg.depth
        self._ref_prods = np.empty((depth, self.n_c, self.n_c), dtype=complex)
        acc = np.eye(self.n_c)
        for m in range(depth):
            acc = acc @ step_unitary(self.system, (start_step + depth - 1 - m) * self.dt,
                                     self.dt)
            self._ref_prods[m] = acc

    def _blocks(self, c):
        """Rows of blocks 1..ell of M from C_j, j = 1..ell."""
        n, h = self.n_c, len(self._rows)
        b_c = self._b_rows().reshape(h * n, n) @ c.conj().transpose(0, 2, 1)
        return np.matmul(c[:, None], b_c.reshape(-1, h, n, n)).reshape(-1, n * n)

    def _memory_matrix(self):
        c = self._ref_prods[self.cfg.stride - 1::self.cfg.stride]
        return np.vstack([self._b_rows(), self._blocks(c)])

    def _advance_memory(self, e, compare):
        if self.cfg.depth > 0:
            self._ref_prods[1:] = e @ self._ref_prods[:-1]
            self._ref_prods[0] = e
        return False


class _KronPropagator(_ProductPropagator):
    """Memory blocks as dense (rows of B~) (C^T kron C^dagger) products: the
    reference."""

    def _blocks(self, c):
        n = self.n_c
        return np.vstack([self._b_rows() @ np.kron(cj.T, cj.conj().T) for cj in c]
                         or [np.zeros((0, n * n))])


def _compare_with_kron(n_c, k, seed, h0_scale, dt, ell, stride, r_tol, rank, q_tol,
                       mode="constrained", n_delay=6):
    s = generate_synthetic_system(n_c, k, seed=seed, h0_scale=h0_scale)
    b = build_B(s)
    cfg = DelayConfig(ell=ell, stride=stride, r_tol=r_tol)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + n_delay), b)
    fast = DelayPropagator(s, b, cfg, dt, mode=mode)
    ref = _KronPropagator(s, b, cfg, dt, mode=mode)
    for prop in (fast, ref):
        prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    q_fast, q_ref = [], []
    for _ in range(n_delay):
        assert np.abs(fast._memory_matrix() - ref._memory_matrix()).max() < 1e-12
        q_fast.append(fast.step())
        q_ref.append(ref.step())
    assert [r.effective_rank for r in fast.records] == [rank] * n_delay
    assert [r.effective_rank for r in ref.records] == [rank] * n_delay
    assert np.abs(np.array(q_fast) - np.array(q_ref)).max() < q_tol


# The rank-deficient case keeps singular values down to r_tol * sigma_1, so
# rounding-level differences in M move its solution by up to cond * eps per
# step (cond 9e10): there the two paths are compared at the accuracy of the
# scheme, elsewhere at rounding level.
@pytest.mark.parametrize("n_c, k, seed, h0_scale, dt, ell, stride, r_tol, rank, q_tol", [
    (4, 2, 3, 1.0, 0.08268, 12, 1, 1e-12, 15, 1e-12),
    (16, 4, 5, 10.0, 0.008268, 8, 1, 1e-12, 135, 1e-3),
    (16, 4, 5, 10.0, 0.008268, 32, 8, 1e-6, 255, 1e-12),
])
def test_memory_matrix_matches_kron_blocks(n_c, k, seed, h0_scale, dt, ell, stride,
                                           r_tol, rank, q_tol):
    _compare_with_kron(n_c, k, seed, h0_scale, dt, ell, stride, r_tol, rank, q_tol)


# More cases of the test above, for the stack that slides at stride 1: a long
# run on criterion 5's system (every block goes through up to ell frame
# changes, many times over), the raw mode, and ell = 0, where there is
# nothing to slide.
@pytest.mark.parametrize("ell, mode, n_delay, rank, q_tol", [
    (20, "constrained", 1000, 15, 1e-12),
    (20, "raw", 200, 16, 1e-12),
    (0, "constrained", 20, 3, 1e-12),
], ids=["crit5-ell20-long", "raw-ell20", "ell0"])
def test_slid_stack_matches_kron_blocks(ell, mode, n_delay, rank, q_tol):
    _compare_with_kron(4, 2, 3, 2.0, 0.08268, ell, 1, 1e-12, rank, q_tol,
                       mode=mode, n_delay=n_delay)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_stride_above_one_rebuilds_the_stack_bitwise():
    # criterion 7's configuration at stride 8, its initial state included
    s = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(s)
    local = np.random.default_rng(11)
    a0 = local.standard_normal(16) + 1j * local.standard_normal(16)
    a0 /= np.linalg.norm(a0)
    dt, n_delay = 0.008268, 40
    cfg = DelayConfig(ell=32, stride=8, r_tol=1e-6)
    q_true = reduced_density_series(
        propagate_coefficients(s, dt, cfg.depth + n_delay, a0=a0), b)
    fast = DelayPropagator(s, b, cfg, dt)
    ref = _ProductPropagator(s, b, cfg, dt)
    for prop in (fast, ref):
        prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    q_fast = [fast.step() for _ in range(n_delay)]
    q_ref = [ref.step() for _ in range(n_delay)]
    assert _same_bits(q_fast, q_ref)
    assert [r.csv_row() for r in fast.records] == [r.csv_row() for r in ref.records]


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_second_warm_start_rebuilds_the_stack(mode):
    s = generate_synthetic_system(4, 2, seed=3)
    b = build_B(s)
    dt, cfg = 0.08268, DelayConfig(ell=20)
    q_true = reduced_density_series(propagate_coefficients(s, dt, 200), b)
    reused = DelayPropagator(s, b, cfg, dt, mode=mode)
    reused.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    for _ in range(30):
        reused.step()
    start = 90  # a window 30 steps on from where `reused` stands
    window = [q_true[start + j] for j in range(cfg.depth + 1)]
    reused.warm_start(window, start_step=start)
    fresh = DelayPropagator(s, b, cfg, dt, mode=mode)
    fresh.warm_start(window, start_step=start)
    q_reused = [reused.step() for _ in range(10)]
    q_fresh = [fresh.step() for _ in range(10)]
    assert _same_bits(q_reused, q_fresh)
    assert ([r.csv_row() for r in reused.records[30:]]
            == [r.csv_row() for r in fresh.records])
    assert np.abs(np.array(q_fresh) - q_true[start + cfg.depth + 1:][:10]).max() < 1e-9
