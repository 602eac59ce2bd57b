"""The constrained solve on the Hermitian half of each Q against all rows.

`DelayPropagator` in constrained mode keeps, for every memory block and every
past Q, only the diagonal and the sqrt(2)-weighted strictly upper entries of
Q, and solves the real system of the real parts of those rows plus the
imaginary parts of the upper ones: K^2 real rows per block.  The reference
is the full-row system the propagator solved before: every block holds all
K^2 complex rows of B~ (C_j^T kron C_j^dagger), the history all K^2 entries of
every Q, and the solve stacks the real and imaginary parts of all 2 K^2 rows.
For Hermitian P and Q both systems have the same normal equations, so they
must give the same ranks and, at full rank, the same Q to rounding level.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay.ci_model import FieldProfile, build_B
from rdmdelay.constraint_prop import (
    ConstraintSpec,
    DelayPropagator,
    HermitianBasis,
    assemble_constrained_system,
    hermitian_half,
)
from rdmdelay.delay_core import DelayConfig, factor_least_squares
from rdmdelay.ground_truth import (
    propagate_coefficients,
    reduced_density_series,
    step_unitary,
)
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import (
    COND_MAX_TIGHT,
    ValidationError,
    flatten,
    random_hermitian,
)


def _dense_reduced(m, basis, spec, q_hist):
    """The complex system M'' x = b_ell of the free coordinates from the
    dense product M S~, with S~'s column j the vec of `basis.matrix(e_j)`."""
    s_tilde = np.column_stack([flatten(basis.matrix(e)) for e in np.eye(basis.dim)])
    ms = m @ s_tilde
    pivot_col = ms[:, spec.pivot].copy()
    kept = spec.kept_coords(basis)
    ms[:, :spec.n_c] -= pivot_col[:, None]
    return ms[:, kept], q_hist - spec.trace_value * pivot_col


def _stacked_solve(m_red, b_ell, r_tol):
    """The full-row solve: the stack of the real and imaginary parts of every
    row, through the same factory."""
    a = np.vstack([m_red.real, m_red.imag])
    rhs = np.concatenate([b_ell.real, b_ell.imag])
    factor = factor_least_squares(a, r_tol)
    x = factor.solve(rhs)
    return (x, float(np.linalg.norm(m_red @ x - b_ell)), factor.effective_rank,
            factor.condition_number)


def _full_row_run(system, b, cfg, dt, q_seed, n_delay, spec):
    """Constrained delay propagation on the full-row system.

    Returns the emitted Q and per step (residual, rank, condition number).
    The memory blocks are the batched products B_r C_j^dagger, then C_j
    times that, with C_j the product of the last j*stride step unitaries.
    """
    n, k2 = system.n_configs, system.n_orbitals ** 2
    basis, b_tilde, depth = HermitianBasis(n), b.matricized, cfg.depth
    hist = [flatten(q) for q in q_seed]  # oldest first
    units = [step_unitary(system, j * dt, dt) for j in range(depth)]
    qs, recs = [], []
    for s in range(depth, depth + n_delay):
        prods, acc = [], np.eye(n)
        for m in range(1, depth + 1):
            acc = acc @ units[-m]
            if m % cfg.stride == 0:
                prods.append(acc)
        c = np.array(prods).reshape(-1, n, n)
        b_c = b_tilde.reshape(k2 * n, n) @ c.conj().transpose(0, 2, 1)
        blocks = np.matmul(c[:, None], b_c.reshape(-1, k2, n, n)).reshape(-1, n * n)
        m_full = np.vstack([b_tilde, blocks])
        q_hist = np.concatenate(hist[::-1][::cfg.stride][:cfg.ell + 1])
        m_red, b_ell = _dense_reduced(m_full, basis, spec, q_hist)
        x, residual, rank, cond = _stacked_solve(m_red, b_ell, cfg.r_tol)
        p_hat = basis.matrix(spec.reconstruct(x, basis))
        e = step_unitary(system, s * dt, dt)
        q_vec = b_tilde @ flatten(e @ p_hat @ e.conj().T)
        hist.append(q_vec)
        units.append(e)
        qs.append(q_vec.reshape((system.n_orbitals, system.n_orbitals), order="F"))
        recs.append((residual, rank, cond))
    return np.array(qs), recs


def _criterion_7_state():
    local = np.random.default_rng(11)
    a0 = local.standard_normal(16) + 1j * local.standard_normal(16)
    return a0 / np.linalg.norm(a0)


def _both(n_c, k, seed, h0_scale, dt, ell, stride, r_tol, n_delay, cycles=5,
          zeros=frozenset(), a0=None):
    system = generate_synthetic_system(n_c, k, seed=seed, h0_scale=h0_scale,
                                       field=FieldProfile(0.5, 0.9, cycles))
    b = build_B(system)
    cfg = DelayConfig(ell=ell, stride=stride, r_tol=r_tol)
    spec = ConstraintSpec(n_c, zero_pairs=zeros)
    q_true = reduced_density_series(
        propagate_coefficients(system, dt, cfg.depth + n_delay, a0=a0), b)
    seed_q = [q_true[j] for j in range(cfg.depth + 1)]
    prop = DelayPropagator(system, b, cfg, dt, spec=spec)
    prop.warm_start(seed_q)
    q = np.array([prop.step() for _ in range(n_delay)])
    recs = [(r.residual, r.effective_rank, r.condition_number) for r in prop.records]
    q_ref, recs_ref = _full_row_run(system, b, cfg, dt, seed_q, n_delay, spec)
    return (q, recs), (q_ref, recs_ref), q_true[cfg.depth + 1:]


def _assert_full_rank_agreement(half, full, n_free):
    (q, recs), (q_ref, recs_ref) = half, full
    assert [r[1] for r in recs] == [r[1] for r in recs_ref] == [n_free] * len(recs)
    assert np.abs(q - q_ref).max() <= 1e-12
    for (res, _, cond), (res_ref, _, cond_ref) in zip(recs, recs_ref):
        assert abs(cond - cond_ref) <= 1e-9 * cond_ref
        assert abs(res - res_ref) <= 1e-14


# criterion 5's system, dt and ell with the field cut off after one cycle
# (the nc4-ell20 benchmark workload), and criterion 7's system and initial
# state at stride 8
@pytest.mark.parametrize("n_c, k, seed, h0_scale, dt, ell, stride, r_tol, n_delay, cycles", [
    (4, 2, 3, 2.0, 0.08268, 20, 1, 1e-12, 380, 1),
    (16, 4, 5, 10.0, 0.008268, 32, 8, 1e-6, 16, 5),
], ids=["nc4-ell20", "nc16-ell32-k8"])
def test_full_rank_runs_match_the_full_row_system(n_c, k, seed, h0_scale, dt, ell, stride,
                                                  r_tol, n_delay, cycles):
    a0 = _criterion_7_state() if n_c == 16 else None
    half, full, _ = _both(n_c, k, seed, h0_scale, dt, ell, stride, r_tol, n_delay, cycles,
                          a0=a0)
    _assert_full_rank_agreement(half, full, n_c * n_c - 1)


def test_declared_zeros_that_move_the_pivot_match_the_full_row_system():
    zeros = frozenset({(3, 3), (2, 3)})
    half, full, _ = _both(4, 2, 3, 2.0, 0.08268, 20, 1, 1e-12, 200, zeros=zeros)
    # one diagonal and one off-diagonal pair removed besides the pivot
    _assert_full_rank_agreement(half, full, 16 - 1 - 1 - 2)


def test_fallback_steps_match_the_full_row_system():
    # criterion 6's coarse ell-4 point at r_tol 1e-12: every step is
    # ill-conditioned (cond 1e4 to 5e6) and takes the pseudoinverse, whose
    # rounding the condition number amplifies and the history feeds back
    # (the sides differ by 1.7e-7 after 300 steps); both stay at the
    # scheme's accuracy
    (q, recs), (q_ref, recs_ref), q_true = _both(4, 2, 3, 2.0, 0.08268, 4, 1, 1e-12, 300)
    assert all(r[2] > COND_MAX_TIGHT for r in recs_ref)
    assert [r[1] for r in recs] == [r[1] for r in recs_ref]
    cond, cond_ref = (np.array([r[2] for r in rs]) for rs in (recs, recs_ref))
    assert np.all(np.abs(cond - cond_ref) <= 1e-8 * cond_ref)
    assert np.abs(q - q_ref).max() <= 1e-6
    assert np.abs(q - q_true).max() <= 1e-5


def test_rank_deficient_steps_match_the_full_row_system():
    # criterion 7's system at stride 1: the memory cannot resolve P, the
    # threshold drops singular values, and the kept condition number is
    # about 1e6; both sides drop the same ones and differ by 3.5e-11 in Q
    (q, recs), (q_ref, recs_ref), _ = _both(16, 4, 5, 10.0, 0.008268, 32, 1, 1e-6, 6,
                                            a0=_criterion_7_state())
    ranks = [r[1] for r in recs]
    assert ranks == [r[1] for r in recs_ref]
    assert max(ranks) < 255
    assert np.abs(q - q_ref).max() <= 1e-8


_cp_case = st.tuples(st.integers(2, 4), st.integers(1, 3), st.integers(1, 4),
                     st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=_cp_case, zero=st.booleans())
def test_half_system_has_the_normal_equations_of_the_full_system(case, zero):
    # each block is a random Hermitian-preserving map P -> sum_s c_s A_s P A_s^dagger
    # (real c_s of either sign), each past Q a random Hermitian matrix
    n, k, n_blocks, seed = case
    local = np.random.default_rng(seed)
    basis = HermitianBasis(n)
    spec = ConstraintSpec(n, zero_pairs=frozenset({(0, n - 1)}) if zero else frozenset())
    blocks, q_hist = [], []
    for _ in range(n_blocks):
        block = np.zeros((k * k, n * n), dtype=complex)
        for c_s in local.standard_normal(3):
            a_s = local.standard_normal((k, n)) + 1j * local.standard_normal((k, n))
            block += c_s * np.kron(a_s.conj(), a_s)
        blocks.append(block)
        q_hist.append(flatten(random_hermitian(k, local)))
    m_full, q_full = np.vstack(blocks), np.concatenate(q_hist)
    m_red, b_ell = _dense_reduced(m_full, basis, spec, q_full)
    a_full = np.vstack([m_red.real, m_red.imag])
    b_full = np.concatenate([b_ell.real, b_ell.imag])

    rows, weights = hermitian_half(k)
    m_half = np.vstack([weights[:, None] * blk[rows] for blk in blocks])
    q_half = np.concatenate([weights * q[rows] for q in q_hist])
    a, rhs = assemble_constrained_system(m_half, spec, q_half, k)
    assert a.shape == (n_blocks * k * k, m_red.shape[1]) and a.dtype == np.float64

    gram, gram_full = a.T @ a, a_full.T @ a_full
    atb, atb_full = a.T @ rhs, a_full.T @ b_full
    assert np.abs(gram - gram_full).max() <= 1e-12 * np.abs(gram_full).max()
    assert np.abs(atb - atb_full).max() <= 1e-12 * np.abs(atb_full).max()


def test_hermitian_half_rows_come_from_the_basis():
    rows, weights = hermitian_half(3)
    # diagonal (0,0), (1,1), (2,2), then upper pairs (0,1), (0,2), (1,2) as
    # column-major vec positions i + 3 j
    assert rows.tolist() == [0, 4, 8, 3, 6, 7]
    assert weights.tolist() == [1.0, 1.0, 1.0] + [np.sqrt(2.0)] * 3
    # the real rows of one block are the weighted real coordinates of Q
    q = random_hermitian(3, np.random.default_rng(1))
    _, rhs = assemble_constrained_system(np.zeros((6, 4)), ConstraintSpec(2),
                                         weights * flatten(q)[rows], 3)
    coords = HermitianBasis(3).coords(q)
    assert np.array_equal(rhs, np.concatenate([coords[:3], np.sqrt(2.0) * coords[3:]]))


def test_assembly_into_given_buffers_matches_fresh_arrays():
    # the propagator assembles every step into the same buffer
    local = np.random.default_rng(3)
    spec, k = ConstraintSpec(4), 2
    rows = 5 * 3  # five blocks of hermitian_half(2) rows
    m = local.standard_normal((rows, 16)) + 1j * local.standard_normal((rows, 16))
    q = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    a, rhs = assemble_constrained_system(m, spec, q, k)
    a_buf = np.empty((5 * 4, 15))
    a_out, rhs_out = assemble_constrained_system(m, spec, q, k, out=a_buf)
    assert np.shares_memory(a_out, a_buf) and a.flags.c_contiguous
    assert np.array_equal(a_out, a) and np.array_equal(rhs_out, rhs)


@pytest.mark.parametrize("zeros", [frozenset(), frozenset({(3, 3), (0, 2)})],
                         ids=["default", "pivot-moved"])
def test_assembly_reads_every_layout_of_the_blocks(zeros):
    # a (blocks, h, N_C, N_C) M: the stack's rows-outermost layout, a view
    # with gaps between its blocks and a Fortran-ordered copy all give the
    # bits of the 2-D M, and a wrong block shape is refused
    local = np.random.default_rng(5)
    spec, k, h, blocks = ConstraintSpec(4, 1.0, zeros), 2, 3, 7
    m = local.standard_normal((blocks * h, 16)) + 1j * local.standard_normal((blocks * h, 16))
    q = local.standard_normal(blocks * h) + 1j * local.standard_normal(blocks * h)
    a, rhs = assemble_constrained_system(m, spec, q, k)
    blockwise = m.reshape(blocks, h, 4, 4)
    rows_outermost = np.ascontiguousarray(blockwise.transpose(2, 0, 1, 3)).transpose(1, 2, 0, 3)
    gaps = np.repeat(blockwise, 2, axis=0)[::2]
    for layout in (rows_outermost, gaps, np.asfortranarray(blockwise)):
        assert not layout.flags.c_contiguous and np.array_equal(layout, blockwise)
        a_layout, rhs_layout = assemble_constrained_system(layout, spec, q, k)
        assert a_layout.tobytes() == a.tobytes() and rhs_layout.tobytes() == rhs.tobytes()
    with pytest.raises(ValidationError, match=r"\(7, 4, 4, 4\), expected \(blocks, 3, 4, 4\)"):
        assemble_constrained_system(np.zeros((7, 4, 4, 4)), spec, q, k)


def _warm_start_seed():
    system = generate_synthetic_system(4, 2, seed=3)
    b = build_B(system)
    cfg = DelayConfig(ell=4)
    q_true = reduced_density_series(propagate_coefficients(system, 0.08268, cfg.depth), b)
    return system, b, cfg, [q.copy() for q in q_true]


@pytest.mark.parametrize("bad", [1e-6, np.nan], ids=["non-hermitian", "nan"])
def test_constrained_warm_start_rejects_a_bad_seed(bad):
    # the half-row history keeps only the upper triangle: a seed that is not
    # Hermitian would otherwise be silently truncated
    system, b, cfg, seed = _warm_start_seed()
    seed[2][0, 1] += bad
    prop = DelayPropagator(system, b, cfg, 0.08268)
    before = prop._q_hist.tobytes()
    with pytest.raises(ValidationError, match="seed Q"):
        prop.warm_start(seed)
    assert prop._q_hist.tobytes() == before
    with pytest.raises(ValidationError, match="not warm-started"):
        prop.step()


def test_raw_warm_start_accepts_a_non_hermitian_seed():
    system, b, cfg, seed = _warm_start_seed()
    seed[2][0, 1] += 1e-6
    prop = DelayPropagator(system, b, cfg, 0.08268, mode="raw")
    prop.warm_start(seed)
    assert np.array_equal(prop._q_hist[cfg.depth - 2], flatten(seed[2]))
