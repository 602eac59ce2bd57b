import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rdmdelay import constraint_prop
from rdmdelay.ci_model import CiSystem, FieldProfile, build_B, one_electron_index_map
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
    normal_equations_factor,
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
    # eight blocks of hermitian_half(1): one real row each
    m = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    a, b = assemble_constrained_system(m, ConstraintSpec(2), np.zeros(8), 1)
    assert a.shape == (8, 3) and b.shape == (8,)

    # row/column 2 of P forced to zero: 1 diagonal + 3 complex off-diagonal
    # pairs = 7 removed real coordinates
    zeros = frozenset({(1, j) for j in range(4)})
    spec = ConstraintSpec(4, zero_pairs=zeros)
    m16 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    a, _ = assemble_constrained_system(m16, spec, np.zeros(8), 1)
    assert a.shape == (8, 16 - 1 - 7)


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


def _real_half(m_red, b_ell, k):
    """Reference real half system of a complex M'' x = b_ell on blocks of
    K(K+1)/2 rows: per block, the real parts of every row, then the
    imaginary parts of the rows below the K diagonal ones."""
    h, cols = k * (k + 1) // 2, m_red.shape[1]
    blocks, rhs = m_red.reshape(len(m_red) // h, h, cols), b_ell.reshape(-1, h)
    return (np.concatenate([blocks.real, blocks[:, k:].imag], axis=1).reshape(
                len(blocks) * k * k, cols),
            np.concatenate([rhs.real, rhs[:, k:].imag], axis=1).ravel())


def test_constrained_solve_recovers_planted_p():
    basis = HermitianBasis(3)
    spec = ConstraintSpec(3, trace_value=1.0)
    p = random_hermitian(3, rng)
    p += np.eye(3) * (1.0 - np.trace(p).real) / 3.0
    m = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    q_hist = m @ flatten(p)
    # four blocks of hermitian_half(2) rows: the consistent system keeps P
    # as its solution in every real row
    a, b_ell = assemble_constrained_system(m, spec, q_hist, 2)
    assert a.shape == (16, 8)
    x, solved = solve_constrained(a, b_ell, 1e-12)
    p_hat = basis.matrix(spec.reconstruct(x, basis))
    assert np.max(np.abs(p_hat - p)) < 1e-10
    assert np.max(np.abs(p_hat - p_hat.conj().T)) == 0.0
    assert abs(np.trace(p_hat).real - 1.0) < 1e-14
    assert solved.residual(x, b_ell) < 1e-10
    assert solved.effective_rank == 8  # N_C^2 - 1 retained real coordinates


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
    x, _ = solve_constrained(*assemble_constrained_system(m, spec, m @ flatten(p), 1),
                             1e-12)
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
    """Reference assembly: the dense product M S~, then a loop over columns.
    Returns the complex M'' and b_ell."""
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
    a, b_ell = assemble_constrained_system(m, spec, q_hist, 2)
    a_ref, b_ref = _real_half(*_assemble_dense(m, basis, spec, q_hist), 2)
    # S~ holds only 0, 1 and +-1j, so both assemblies round alike
    assert np.array_equal(a, a_ref)
    assert np.array_equal(b_ell, b_ref)
    x, _ = solve_constrained(a, b_ell, 1e-12)
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
    # ConstraintSpec(3) with HermitianBasis(4) would otherwise reconstruct a
    # 16-coordinate P around pivot coordinate 2
    spec, basis = ConstraintSpec(3), HermitianBasis(4)
    m = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
    with pytest.raises(ValidationError, match="n_c = 4.*n_c = 3"):
        spec.kept_coords(basis)
    with pytest.raises(ValidationError, match="n_c = 4.*n_c = 3"):
        spec.reconstruct(np.zeros(8), basis)
    # the assembly takes its positions from the spec, and M must match it
    with pytest.raises(ValidationError, match="M has 16 columns, expected 9"):
        assemble_constrained_system(m, spec, np.zeros(8), 1)


def test_assembly_rejects_rows_that_are_not_whole_blocks():
    spec = ConstraintSpec(2)
    m = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    for k, h in ((2, 3), (0, 0), (-1, 0)):
        with pytest.raises(ValidationError, match=rf"8 rows, not whole blocks of .* = {h} rows"):
            assemble_constrained_system(m, spec, np.zeros(8), k)
    with pytest.raises(ValidationError, match="q_hist has length 6, expected 8"):
        assemble_constrained_system(m, spec, np.zeros(6), 1)


@st.composite
def _assembly_cases(draw):
    """N_C, K, a number of blocks, a seed and declared zero pairs that leave
    a diagonal entry free; the zero pairs may move the pivot."""
    n = draw(st.integers(2, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    zeros = draw(st.frozensets(pair, max_size=n).filter(
        lambda z: sum(i == j for i, j in z) < n))
    return (n, draw(st.integers(1, 3)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**32 - 1)), zeros)


@settings(max_examples=60, deadline=None)
@given(case=_assembly_cases(), trace=st.sampled_from([1.0, 2.0, -0.5]))
@example(case=(4, 2, 3, 7, frozenset({(3, 3), (2, 3)})), trace=1.0)  # the pivot moves
def test_assembly_equals_the_real_half_of_the_dense_product(case, trace):
    n, k, blocks, seed, zeros = case
    local = np.random.default_rng(seed)
    rows = blocks * k * (k + 1) // 2
    m = local.standard_normal((rows, n * n)) + 1j * local.standard_normal((rows, n * n))
    q_hist = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    spec = ConstraintSpec(n, trace, zeros)
    a, b = assemble_constrained_system(m, spec, q_hist, k)
    a_ref, b_ref = _real_half(*_assemble_dense(m, HermitianBasis(n), spec, q_hist), k)
    assert a.dtype == b.dtype == np.float64 and a.shape == a_ref.shape
    assert np.array_equal(a, a_ref) and np.array_equal(b, b_ref)
    # into a given array, every entry overwritten, with the same bits
    buf = np.full(a.shape, np.nan)
    a_out, b_out = assemble_constrained_system(m, spec, q_hist, k, out=buf)
    assert a_out is buf
    assert a_out.tobytes() == a.tobytes() and b_out.tobytes() == b.tobytes()


@pytest.mark.parametrize("trace", [np.nan, np.inf, -np.inf, "x", 1j, True, None])
def test_constraint_spec_rejects_a_trace_that_is_not_a_finite_real(trace):
    with pytest.raises(ValidationError, match="trace_value must be a finite real"):
        ConstraintSpec(4, trace_value=trace)


def test_constraint_spec_takes_an_integer_or_numpy_trace():
    assert ConstraintSpec(4, trace_value=2).trace_value == 2
    assert ConstraintSpec(4, trace_value=np.float64(0.5)).trace_value == 0.5


@pytest.mark.parametrize("spec", [
    ConstraintSpec(4, zero_pairs=frozenset({(0, 3)})),
    ConstraintSpec(4, trace_value=2.0),
], ids=["declared-zero", "trace-2"])
def test_raw_mode_rejects_a_constraint_it_cannot_impose(spec):
    # the raw solve is over all of vec(P): it would ignore both without a word
    s = generate_synthetic_system(4, 2, seed=3)
    with pytest.raises(ValidationError, match="raw mode"):
        DelayPropagator(s, build_B(s), DelayConfig(ell=4), 0.08268, mode="raw", spec=spec)


def test_raw_mode_takes_the_default_spec():
    s = generate_synthetic_system(4, 2, seed=3)
    for spec in (None, ConstraintSpec(4), ConstraintSpec(4, 1, frozenset())):
        prop = DelayPropagator(s, build_B(s), DelayConfig(ell=4), 0.08268, mode="raw",
                               spec=spec)
        assert prop.spec == ConstraintSpec(4)


@pytest.mark.parametrize("start_step", [2.5, -7, True, "3", None])
def test_warm_start_takes_only_a_nonnegative_integer_step(start_step):
    s = generate_synthetic_system(4, 2, seed=3)
    b, cfg, dt = build_B(s), DelayConfig(ell=4), 0.08268
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth), b)
    prop = DelayPropagator(s, b, cfg, dt)
    with pytest.raises(ValidationError, match="start_step must be an integer >= 0"):
        prop.warm_start(list(q_true), start_step=start_step)
    with pytest.raises(ValidationError, match="not warm-started"):
        prop.step()
    prop.warm_start(list(q_true), start_step=np.int64(3))
    assert prop._step_index == 3 + cfg.depth


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


def test_one_configuration_is_solved_from_the_trace_alone():
    # N_C = 1 leaves no free coordinate: x is empty, P-hat is the trace, and
    # every step reads rank 0 (the column count) and condition number 1
    s = generate_synthetic_system(1, 1, seed=0)
    b = build_B(s)
    dt, n, cfg = 0.08268, 20, DelayConfig(ell=2)
    q_true = reduced_density_series(propagate_coefficients(s, dt, n), b)
    q_con, records = run_delay_propagation(s, b, dt, n, cfg, q_true)
    q_raw, _ = run_delay_propagation(s, b, dt, n, cfg, q_true, mode="raw")
    assert np.abs(q_con - q_raw).max() <= 1e-12
    assert {(r.effective_rank, r.condition_number) for r in records} == {(0, 1.0)}
    b_ell = np.array([0.5, -2.0, 0.0])
    x, solved = solve_constrained(np.zeros((3, 0)), b_ell, 1e-12)
    assert x.shape == (0,)
    assert (solved.residual(x, b_ell), solved.effective_rank, solved.condition_number) == (
        np.linalg.norm(b_ell), 0, 1.0)


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
    """Reference: every step rebuilds the blocks of M from its own products
    C_m of the last m step unitaries, formed as ``acc @ E`` over the warm-start
    window and then by C_{m+1} = E C_m, with the batched blocks of
    `DelayPropagator._memory_blocks`, the hook through which the engine
    builds its stack and its strided chunks.  It never slides a stack, and
    never reuses a solve: every step factors its own M.  Its blocks hold the
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

    def _memory_blocks(self, lo, hi, out):
        s = self.cfg.stride
        out[...] = self._blocks(self._ref_prods[lo * s - 1:hi * s - 1:s]).reshape(out.shape)

    def _advance_memory(self, e):
        self._ref_prods[1:] = e @ self._ref_prods[:-1]
        self._ref_prods[0] = e
        self._stack_current = False  # the next M is built anew, never slid

    def step(self):
        q_next = super().step()
        # no run of one unitary ever starts, so at depth >= 1 no solve is kept
        self._last_e = None
        return q_next


class _KronPropagator(_ProductPropagator):
    """Memory blocks as dense (rows of B~) (C^T kron C^dagger) products: the
    reference."""

    def _blocks(self, c):
        n = self.n_c
        return np.vstack([self._b_rows() @ np.kron(cj.T, cj.conj().T) for cj in c]
                         or [np.zeros((0, n * n))])


def _memory_of(prop):
    """M(t) of the propagator's next step: its stack at stride 1 and in raw
    mode; a constrained propagator at stride > 1 keeps no stack, so there,
    in a new array, block 0 and blocks 1..ell from its block hook."""
    if not prop._chunked:
        return prop._memory_matrix()
    blocks = np.empty((prop.cfg.ell + 1, *prop._memory.shape[1:]), dtype=complex)
    blocks[0] = prop._memory[0]
    prop._memory_blocks(1, prop.cfg.ell + 1, blocks[1:])
    return blocks.reshape(-1, prop.n_c ** 2)


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
        assert np.abs(_memory_of(fast) - _memory_of(ref)).max() < 1e-12
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


class _BlockMajorPropagator(DelayPropagator):
    """Reference for stride 1: the stack kept block by block, C-ordered, as
    the engine kept it before its rows went outermost.  The first stack is
    built in place, X_0 C_j^dagger and then C_j times it; the slide is two
    GEMMs through the scratch with two transposing copies, moving the rows
    of every block outermost for the left product by E and back; the
    system is gathered from the stack's C-ordered float view."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        n, h, ell = self.n_c, len(self._rows), self.cfg.ell
        self._ref_stack = np.empty((ell + 1, h, n, n), dtype=complex)
        self._ref_stack[0] = self._blockwise[0]
        self._ref_work = np.empty((ell, h * n, n), dtype=complex)

    def _stack(self):
        if not self._stack_current:
            n, h = self.n_c, len(self._rows)
            for lo in range(1, self.cfg.ell + 1, constraint_prop._REBUILD_CHUNK):
                out = self._ref_stack[lo:lo + constraint_prop._REBUILD_CHUNK]
                c = self._cprods[lo - 1:lo - 1 + len(out)]
                np.matmul(self._ref_stack[0].reshape(h * n, n), c.conj().transpose(0, 2, 1),
                          out=out.reshape(-1, h * n, n))
                np.matmul(c[:, None], out, out=out)
            self._stack_current = True
        return self._ref_stack

    def _advance_memory(self, e):
        n, tail, work = self.n_c, self._ref_stack[1:], self._ref_work
        np.matmul(self._ref_stack[:-1].reshape(-1, n), e.conj().T, out=work.reshape(-1, n))
        np.copyto(tail.reshape(n, -1, n), work.reshape(-1, n, n).transpose(1, 0, 2))
        np.matmul(e, tail.reshape(n, -1), out=work.reshape(n, -1))
        np.copyto(tail.reshape(-1, n, n), work.reshape(n, -1, n).transpose(1, 0, 2))


def _crit8_system():
    """Criterion 8's system: configuration 3 never couples, so row and
    column 3 of P stay zero."""
    local = np.random.default_rng(2)
    h0 = np.sort(local.standard_normal(4) * 2.0)
    m_dip = local.standard_normal((4, 4)) + 1j * local.standard_normal((4, 4))
    m_dip = m_dip + m_dip.conj().T
    m_dip[3, :] = m_dip[:, 3] = 0.0
    return CiSystem(n_electrons=2, n_orbitals=2, c_matrix=np.eye(4, dtype=complex),
                    index_map=one_electron_index_map(2), h0_diag=h0, m_dip=m_dip,
                    field=FieldProfile(amplitude=0.5, omega=0.9, cycles=5))


# Criterion 5's system past its field cutoff (step 423), so that the last
# ~600 steps reuse a solve; the raw mode; ell 0, where nothing slides;
# criterion 8's declared zeros; and N_C = 16, K = 4 at ell 8
@pytest.mark.parametrize("system, dt, ell, mode, zeros, n_delay", [
    ("crit5", 0.08268, 20, "constrained", False, 1000),
    ("crit5", 0.08268, 20, "raw", False, 200),
    ("crit5", 0.08268, 0, "constrained", False, 30),
    ("crit8", 0.08268, 8, "constrained", True, 292),
    ("nc16", 0.008268, 8, "constrained", False, 6),
], ids=["crit5-ell20-long", "raw-ell20", "ell0", "crit8-zero3", "nc16-ell8"])
def test_rows_outermost_stack_matches_the_block_major_slide(system, dt, ell, mode, zeros,
                                                             n_delay):
    # the same products on a stack of another layout: BLAS must round each
    # entry the same whatever the leading dimensions, so M, A, b and Q keep
    # every bit at every step
    if system == "crit8":
        s = _crit8_system()
    elif system == "crit5":
        s = generate_synthetic_system(4, 2, seed=3, h0_scale=2.0)
    else:
        s = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(s)
    spec = ConstraintSpec(s.n_configs, zero_pairs={(3, j) for j in range(4)} if zeros else ())
    cfg = DelayConfig(ell=ell)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + n_delay), b)
    fast = DelayPropagator(s, b, cfg, dt, mode=mode, spec=spec)
    ref = _BlockMajorPropagator(s, b, cfg, dt, mode=mode, spec=spec)
    for prop in (fast, ref):
        prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    for _ in range(n_delay):
        q_hist = fast._stacked_history().copy()
        assert _same_bits(fast._memory_matrix(), ref._memory_matrix())
        assert _same_bits(fast.step(), ref.step())
        if mode == "constrained":
            assert _same_bits(fast._a, ref._a)
            assert _same_bits(fast._constrained_rhs(q_hist), ref._constrained_rhs(q_hist))
    assert [r.csv_row() for r in fast.records] == [r.csv_row() for r in ref.records]
    if n_delay > 500:
        assert fast._solved is not None  # the run ends reusing a solve


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
    q_fast, q_ref = [], []
    for _ in range(n_delay):
        m_ref = _memory_of(ref)
        a_ref, _ = assemble_constrained_system(m_ref, ref.spec, ref._stacked_history(), 4)
        q_fast.append(fast.step())
        q_ref.append(ref.step())
        # fast builds its system a chunk at a time: A is the one assembled
        # from the reference's whole M in one call, and the pivot column it
        # keeps for reuse is M's, bit for bit
        assert _same_bits(fast._a, a_ref)
        assert _same_bits(fast._pivot, m_ref[:, fast.spec.pivot * 17])
    assert _same_bits(q_fast, q_ref)
    assert [r.csv_row() for r in fast.records] == [r.csv_row() for r in ref.records]
    # at stride 1 the stack slides, which rounds otherwise than a rebuild
    # from the products; the pivot column a step keeps is its own M's
    slid = DelayPropagator(s, b, DelayConfig(ell=32, r_tol=1e-6), dt)
    slid.warm_start([q_true[j] for j in range(33)])
    for _ in range(n_delay):
        m = slid._memory_matrix()
        slid.step()
        assert _same_bits(slid._pivot, m[:, slid.spec.pivot * 17])


def _crit7_stride8(n_delay):
    """Criterion 7's system at ell 32, stride 8, r_tol 1e-6, warm-started:
    (propagator, its warm-start seed, the ground truth's Q series)."""
    s = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(s)
    dt, cfg = 0.008268, DelayConfig(ell=32, stride=8, r_tol=1e-6)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + n_delay), b)
    seed = [q_true[j] for j in range(cfg.depth + 1)]
    prop = DelayPropagator(s, b, cfg, dt)
    prop.warm_start(seed)
    return prop, seed


def test_strided_step_holds_no_stack_sized_scratch():
    # at stride > 1 a constrained propagator builds M a chunk at a time into
    # A, and the gate reduces the Gram matrix N it owns: a propagator keeps
    # block 0 and one chunk of M, M's pivot column, the products C_m, A and
    # the history, and a fresh step adds no more than the larger of A and N
    # with its Cholesky factor, plus LAPACK's workspace and vectors (a
    # quarter of N covers them)
    warm, seed = _crit7_stride8(2)
    for _ in range(2):  # numpy's and LAPACK's first-call allocations
        warm.step()
    assert normal_equations_factor(warm._a, warm.cfg.r_tol) is not None  # the gate passes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = DelayPropagator(warm.system, warm.b, warm.cfg, warm.dt)
        prop.warm_start(seed)
        kept = tracemalloc.get_traced_memory()[0] - before
        prop.step()
        tracemalloc.reset_peak()
        between = tracemalloc.get_traced_memory()[0]
        prop.step()
        step_peak = tracemalloc.get_traced_memory()[1] - between
    finally:
        tracemalloc.stop()
    # bytes at ell 32, stride 8, K = 4, N_C = 16, with 255 free coordinates
    ell, depth, h, k2, n2, n_free = 32, 256, 10, 16, 256, 255
    block = h * n2 * 16
    stack_tail = ell * block
    a_bytes = (ell + 1) * k2 * n_free * 8
    gram = n_free ** 2 * 8
    arrays = ((1 + constraint_prop._REBUILD_CHUNK) * block + depth * n2 * 16 + a_bytes
              + (depth + 1) * h * 16 + (ell + 1) * h * 16)
    assert sum(x.nbytes for x in (prop._memory, prop._cprods, prop._a, prop._q_hist,
                                  prop._pivot)) == arrays
    assert kept - arrays < stack_tail / 4
    assert step_peak <= max(a_bytes, 2 * gram) + gram / 4
    # no complex array of the propagator holds the (ell + 1)-block stack
    assert len(prop._blockwise) <= constraint_prop._REBUILD_CHUNK + 1
    assert max(x.size for x in vars(prop).values()
               if isinstance(x, np.ndarray) and x.dtype.kind == "c") < (ell + 1) * h * n2


def test_stride_one_keeps_the_stack_and_its_slide_scratch():
    # at stride 1 a constrained propagator keeps the stack of ell + 1 blocks,
    # rows outermost, the scratch of its slide (`_work`, ell blocks), the
    # products C_m (read for the first stack after a warm start), A, the
    # history and M's pivot column.  Its gather reads the stack at float
    # offsets kept once per shape, two arrays of A's size
    s = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(s)
    dt, cfg = 0.008268, DelayConfig(ell=32, r_tol=1e-6)
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + 2), b)
    seed = [q_true[j] for j in range(cfg.depth + 1)]
    warm = DelayPropagator(s, b, cfg, dt)
    warm.warm_start(seed)
    for _ in range(2):  # numpy's and LAPACK's first-call allocations, and the offsets
        warm.step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prop = DelayPropagator(s, b, cfg, dt)
        prop.warm_start(seed)
        prop.step()
        prop.step()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # bytes at ell 32, stride 1, K = 4, N_C = 16, with 255 free coordinates
    ell, h, k2, n2, n_free = 32, 10, 16, 256, 255
    block = h * n2 * 16
    a_bytes = (ell + 1) * k2 * n_free * 8
    arrays = ((ell + 1) * block + ell * block + ell * n2 * 16 + a_bytes
              + (ell + 1) * h * 16 + (ell + 1) * h * 16)
    assert sum(x.nbytes for x in (prop._memory, prop._work, prop._cprods, prop._a,
                                  prop._q_hist, prop._pivot)) == arrays
    offsets = constraint_prop._strided_plan(prop.spec, 4, prop._blockwise.shape,
                                            prop._blockwise.strides)
    assert sum(x.nbytes for x in offsets) == 2 * a_bytes
    # beside them B~'s kept rows and the pending diagnostics: no stack-sized array
    assert kept - arrays < ell * block / 4


@pytest.mark.parametrize("mode, stride, blocks", [
    ("constrained", 1, 13), ("raw", 1, 13), ("raw", 2, 13),
    ("constrained", 2, 1 + constraint_prop._REBUILD_CHUNK),
])
def test_only_the_strided_constrained_mode_drops_the_stack(mode, stride, blocks):
    # the stride-1 slide and the raw solve keep M as a stack of ell + 1
    # blocks, rows outermost; the strided constrained mode keeps block 0 and
    # one chunk, block by block
    s = generate_synthetic_system(4, 2, seed=3)
    prop = DelayPropagator(s, build_B(s), DelayConfig(ell=12, stride=stride), 0.08268,
                           mode=mode)
    h = len(prop._rows)
    assert prop._blockwise.shape == (blocks, h, 4, 4)
    assert np.shares_memory(prop._blockwise, prop._memory)
    assert prop._memory.shape == ((4, blocks, h, 4) if blocks == 13 else (blocks, h, 4, 4))
    assert prop._memory.nbytes == blocks * h * 16 * 16


def test_gram_of_the_strided_system_is_exactly_symmetric():
    # the gate reads N's upper triangle for its lower one (numkit), which is
    # exact for the C-ordered A a constrained step forms
    prop, _ = _crit7_stride8(1)
    prop.step()
    a = prop._a
    assert a.flags.c_contiguous
    gram = a.T @ a
    assert np.array_equal(gram, gram.T)


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
