"""The per-step helpers of `DelayPropagator.step` keep the values of the
formulas they replace, bit for bit.

Each reference below is the earlier formula, written out here: the complex
off-diagonal construction of `HermitianBasis.matrix`, the two-slice
concatenation of the real right-hand side, `np.linalg.norm` of the
residual, the symmetrised P-hat of the diagnostics, `np.trace` and `np.max`.
"""

import math
import warnings

import numpy as np
import pytest

from rdmdelay.ci_model import CiSystem, FieldProfile, build_B, one_electron_index_map
from rdmdelay.constraint_prop import (
    ConstraintSpec,
    DelayPropagator,
    HermitianBasis,
    assemble_constrained_system,
    constrained_rhs,
    solve_constrained,
)
from rdmdelay.delay_core import DelayConfig, factor_least_squares
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import hermiticity_defect

DT_COARSE = 0.082680
DT_FINE = 0.008268


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _matrix_reference(basis, x):
    n, n_p = basis.n_c, len(basis.pairs)
    off = x[n:n + n_p] + 1j * x[n + n_p:]
    v = np.zeros(n * n, dtype=complex)
    v[basis._diag_pos] = x[:n]
    v[basis._upper_pos] = off
    v[basis._lower_pos] = off.conj()
    return v.reshape((n, n), order="F")


def _real_half_rhs_reference(b_ell, k):
    rhs = b_ell.reshape(-1, k * (k + 1) // 2)
    return np.concatenate([rhs.real, rhs[:, k:].imag], axis=1).ravel()


def _signed_zeros(local, size):
    return np.where(local.random(size) < 0.5, -0.0, 0.0)


def _coordinates(n, seed):
    """Random, zero, negative-zero, mixed signed-zero and large coordinates."""
    local = np.random.default_rng(seed)
    x = local.standard_normal(n * n)
    mixed = np.where(local.random(n * n) < 0.5, x, _signed_zeros(local, n * n))
    return [x, np.zeros(n * n), np.full(n * n, -0.0), _signed_zeros(local, n * n), mixed,
            1e300 * x, -1e-300 * x]


@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_basis_matrix_matches_the_complex_construction(n):
    basis = HermitianBasis(n)
    for x in _coordinates(n, seed=n):
        p = basis.matrix(x)
        assert _same_bits(p, _matrix_reference(basis, x))
        assert p.flags.f_contiguous


@pytest.mark.parametrize("k, blocks", [(1, 3), (2, 21), (4, 33)])
def test_real_half_rhs_matches_the_concatenation(k, blocks):
    # b_ell = q_hist - trace_value * (M's pivot column), then its real half
    local = np.random.default_rng(k)
    size = blocks * k * (k + 1) // 2
    spec = ConstraintSpec(3, 2.0, frozenset({(2, 2)}))  # pivot on diagonal 1
    for q, m in ((local.standard_normal(size) + 1j * local.standard_normal(size),
                  local.standard_normal((size, 9)) + 1j * local.standard_normal((size, 9))),
                 (_signed_zeros(local, size) - 1j * _signed_zeros(local, size),
                  _signed_zeros(local, (size, 9)) + 1j * _signed_zeros(local, (size, 9)))):
        b_ell = q - spec.trace_value * m[:, 4]
        assert _same_bits(constrained_rhs(m, spec, q, k), _real_half_rhs_reference(b_ell, k))


@pytest.mark.parametrize("size, scale", [(1, 1.0), (84, 1.0), (528, 1e-150), (63, 1e150),
                                         (1056, 1e-3)])
def test_sqrt_dot_residual_matches_numpy_norm(size, scale):
    local = np.random.default_rng(size)
    for _ in range(50):
        r = scale * local.standard_normal(size)
        assert math.sqrt(r.dot(r)) == float(np.linalg.norm(r))


@pytest.mark.parametrize("complex_system", [False, True])
def test_least_squares_residual_matches_numpy_norm(complex_system):
    # the real system of the constrained solve, or the complex one of the raw
    # mode and propagate_y
    local = np.random.default_rng(8)
    m, b = local.standard_normal((84, 15)), local.standard_normal(84)
    if complex_system:
        m = m + 1j * local.standard_normal((84, 15))
        b = b + 1j * local.standard_normal(84)
    factor = factor_least_squares(m, 1e-12)
    x = factor.solve(b)
    assert factor.residual(x, b) == float(np.linalg.norm(m @ x - b))
    if not complex_system:
        assert solve_constrained(m, b, 1e-12).residual == factor.residual(x, b)


def test_hermiticity_defect_keeps_its_value():
    local = np.random.default_rng(3)
    for n in (1, 2, 4):
        a = local.standard_normal((n, n)) + 1j * local.standard_normal((n, n))
        assert hermiticity_defect(a) == float(np.max(np.abs(a - a.conj().T)))
    a[0, 1] = np.nan
    assert np.isnan(hermiticity_defect(a))


def _criterion8_system():
    """Criterion 8's constrained system: configuration 4 never couples."""
    local = np.random.default_rng(2)
    h0 = np.sort(local.standard_normal(4) * 2.0)
    m_dip = local.standard_normal((4, 4)) + 1j * local.standard_normal((4, 4))
    m_dip = m_dip + m_dip.conj().T
    m_dip[3, :] = 0.0
    m_dip[:, 3] = 0.0
    return CiSystem(n_electrons=2, n_orbitals=2, c_matrix=np.eye(4, dtype=complex),
                    index_map=one_electron_index_map(2), h0_diag=h0, m_dip=m_dip,
                    field=FieldProfile(amplitude=0.5, omega=0.9, cycles=5))


# (system, dt, n_steps, ell, mode, zero pairs): criterion 5 past its field
# cutoff at step 423, so that reused steps are checked too; criterion 8's
# constrained run; criterion 8's rank-deficient raw run
RUNS = {
    "crit5": (lambda: generate_synthetic_system(4, 2, seed=3), DT_COARSE, 520, 20,
              "constrained", frozenset()),
    "crit8-constrained": (_criterion8_system, DT_COARSE, 300, 8, "constrained",
                          frozenset({(3, j) for j in range(4)})),
    "crit8-raw": (lambda: generate_synthetic_system(4, 2, seed=3), DT_FINE, 2000, 3, "raw",
                  frozenset()),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_step_diagnostics_match_the_symmetrised_formulas(run):
    make, dt, n_steps, ell, mode, zeros = RUNS[run]
    system = make()
    b = build_B(system)
    q_true = reduced_density_series(propagate_coefficients(system, dt, n_steps), b)
    cfg = DelayConfig(ell=ell)
    prop = DelayPropagator(system, b, cfg, dt, mode=mode,
                           spec=ConstraintSpec(system.n_configs, 1.0, zeros))
    prop.warm_start(q_true[:cfg.depth + 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(n_steps - cfg.depth):
            q = prop.step()
            p, rec = prop.last_p_hat, prop.records[-1]
            assert rec.min_eig_p == float(np.linalg.eigvalsh((p + p.conj().T) / 2).min())
            assert rec.trace_q == float(np.trace(q).real)
            assert rec.hermiticity_defect_q == float(np.max(np.abs(q - q.conj().T)))


def test_assembly_without_out_matches_the_propagator():
    # criterion 5's first delay step, solved by the standalone chain on new
    # arrays, against the propagator, which assembles into its kept arrays
    system = generate_synthetic_system(4, 2, seed=3)
    b = build_B(system)
    cfg = DelayConfig(ell=20)
    q_true = reduced_density_series(propagate_coefficients(system, DT_COARSE, cfg.depth), b)
    prop = DelayPropagator(system, b, cfg, DT_COARSE)
    prop.warm_start(q_true[:cfg.depth + 1])
    m, q_hist = prop._memory_matrix(), prop._stacked_history()
    a, rhs = assemble_constrained_system(m, prop.spec, q_hist, prop.k_orb)
    assert a.flags.c_contiguous
    assert _same_bits(rhs, constrained_rhs(m, prop.spec, q_hist, prop.k_orb))
    x, residual, rank, cond, _ = solve_constrained(a, rhs, cfg.r_tol)
    p_hat = prop.basis.matrix(prop.spec.reconstruct(x, prop.basis))
    prop.step()
    rec = prop.records[-1]
    assert _same_bits(p_hat, prop.last_p_hat)
    assert [residual, rank, cond] == [rec.residual, rec.effective_rank, rec.condition_number]
