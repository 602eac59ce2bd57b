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
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import NumericalError, flatten, random_hermitian, random_unitary

rng = np.random.default_rng(4114)


def test_basis_n2_explicit():
    basis = HermitianBasis(2)
    mats = [c.reshape(2, 2, order="F") for c in basis.s_tilde.T]
    assert len(mats) == 4
    assert np.array_equal(mats[0], [[1, 0], [0, 0]])
    assert np.array_equal(mats[1], [[0, 0], [0, 1]])
    assert np.array_equal(mats[2], [[0, 1], [1, 0]])
    assert np.array_equal(mats[3], [[0, 1j], [-1j, 0]])


def test_basis_n3_orthogonal():
    basis = HermitianBasis(3)
    assert basis.s_tilde.shape == (9, 9)
    # <S^i, S^j> = tr(S^i^dagger S^j) = the inner product of the vec columns
    gram = (basis.s_tilde.conj().T @ basis.s_tilde).real
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-14


def test_basis_round_trip_exact():
    basis = HermitianBasis(4)
    z = random_hermitian(4, rng)
    x = basis.coords(z)
    assert x.dtype == np.float64
    assert np.array_equal(basis.s_tilde @ x, flatten(z))
    assert np.array_equal(basis.matrix(x), z)


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
    # a Hermitian matrix satisfying the declared constraints exactly
    p = random_hermitian(4, rng)
    p[1, :] = 0.0
    p[:, 1] = 0.0
    p[0, 0] += 1.0 - np.trace(p).real
    x_full = basis.coords(p)
    x_red = x_full[spec.kept_coords(basis)]
    x_back = spec.reconstruct(x_red, basis)
    assert np.array_equal(basis.matrix(x_back), p)


def test_constrained_solve_recovers_planted_p():
    basis = HermitianBasis(3)
    spec = ConstraintSpec(3, trace_value=1.0)
    p = random_hermitian(3, rng)
    p += np.eye(3) * (1.0 - np.trace(p).real) / 3.0
    m = rng.standard_normal((12, 9)) + 1j * rng.standard_normal((12, 9))
    q_hist = m @ flatten(p)
    m_red, b_ell = assemble_constrained_system(m, basis, spec, q_hist)
    x, residual, rank, cond = solve_constrained(m_red, b_ell, 1e-12)
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
    x, _, _, _ = solve_constrained(m_red, b_ell, 1e-12)
    p_hat = basis.matrix(spec.reconstruct(x, basis))
    assert np.max(np.abs(p_hat - p)) < 1e-10


def _assemble_dense(m, basis, spec, q_hist):
    """Reference assembly: the dense product M S~, then a loop over columns."""
    ms = m @ basis.s_tilde
    pivot_col = ms[:, spec.pivot].copy()
    cols = [ms[:, j] - pivot_col if j < spec.n_c else ms[:, j]
            for j in spec.kept_coords(basis)]
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
    x, _, _, _ = solve_constrained(m_red, b_ell, 1e-12)
    p_hat = basis.matrix(spec.reconstruct(x, basis))
    for i, j in zeros:
        assert p_hat[i, j] == 0.0 and p_hat[j, i] == 0.0
    assert np.trace(p_hat).real == pytest.approx(1.0, abs=1e-14)


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
    prop._q_hist[-1][1] = np.nan
    with pytest.raises(NumericalError, match=rf"step {cfg.depth + 2} .*{mode} solve stage"):
        prop.step()
    assert len(prop.records) == 1


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


class _KronPropagator(DelayPropagator):
    """Memory blocks as dense B~ (C^T kron C^dagger) products: the reference."""

    def _memory_matrix(self):
        blocks = [self.b_tilde]
        for j in range(1, self.cfg.ell + 1):
            c = self._cprods[j * self.cfg.stride - 1]
            blocks.append(self.b_tilde @ np.kron(c.T, c.conj().T))
        return np.vstack(blocks)


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
    s = generate_synthetic_system(n_c, k, seed=seed, h0_scale=h0_scale)
    b = build_B(s)
    cfg = DelayConfig(ell=ell, stride=stride, r_tol=r_tol)
    n_delay = 6
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth + n_delay), b)
    fast = DelayPropagator(s, b, cfg, dt)
    ref = _KronPropagator(s, b, cfg, dt)
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
