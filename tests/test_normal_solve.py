"""The normal-equations fast path of the constrained solve against the SVD path.

`solve_constrained` solves a well-conditioned step by Cholesky plus one
corrected semi-normal step (`numkit.normal_equations_solve`) and every
other step through the thresholded pseudoinverse.  The reference is the
pseudoinverse path alone: `pinv_thresholded` called directly, or the
propagator with `normal_equations_solve` patched to decline every step.
Fast-path steps must report the same rank and agree to rounding level;
fallback steps must be bit-for-bit the reference.  Fallback steps are
counted through the `constraint_prop.pinv_thresholded` global they call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay import constraint_prop
from rdmdelay.ci_model import build_B
from rdmdelay.constraint_prop import DelayPropagator, solve_constrained
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import (
    COND_MAX,
    COND_MAX_TIGHT,
    THRESHOLD_MARGIN,
    ValidationError,
    normal_equations_solve,
    pinv_thresholded,
)


@pytest.fixture
def pinv_calls(monkeypatch):
    """Number of calls of `pinv_thresholded` made through constraint_prop."""
    calls = []
    original = constraint_prop.pinv_thresholded

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(constraint_prop, "pinv_thresholded", counting)
    return calls


def _svd_reference(m_red, b_ell, r_tol):
    """The pseudoinverse path of `solve_constrained`, on its own."""
    a = np.vstack([m_red.real, m_red.imag])
    pinv, rank, cond = pinv_thresholded(a, r_tol)
    x = pinv @ np.concatenate([b_ell.real, b_ell.imag])
    return x, float(np.linalg.norm(m_red @ x - b_ell)), rank, cond


def _planted(rows, sv, seed, noise=1e-6):
    """Complex M'' and b whose stacked real system has singular values sv.

    b is a consistent right-hand side plus a small perturbation, so that the
    least-squares solution is well determined at every planted condition.
    """
    local = np.random.default_rng(seed)
    cols = len(sv)
    u, _ = np.linalg.qr(local.standard_normal((2 * rows, cols)))
    v, _ = np.linalg.qr(local.standard_normal((cols, cols)))
    a = (u * sv) @ v.T
    b = a @ local.standard_normal(cols) + noise * local.standard_normal(2 * rows)
    return a[:rows] + 1j * a[rows:], b[:rows] + 1j * b[rows:]


def _cond_sv(cols, cond):
    return np.geomspace(1.0, 1.0 / cond, cols)


def _assert_fast_agrees(m_red, b_ell, r_tol, pinv_calls):
    x, residual, rank, cond = solve_constrained(m_red, b_ell, r_tol)
    assert not pinv_calls, "expected the normal-equations path"
    x_ref, res_ref, rank_ref, cond_ref = _svd_reference(m_red, b_ell, r_tol)
    assert rank == rank_ref == m_red.shape[1]
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual == pytest.approx(res_ref, rel=1e-8)
    assert cond == pytest.approx(cond_ref, rel=1e-8)


def _assert_fallback_bitwise(m_red, b_ell, r_tol, pinv_calls):
    got = solve_constrained(m_red, b_ell, r_tol)
    assert len(pinv_calls) == 1, "expected the pseudoinverse path"
    ref = _svd_reference(m_red, b_ell, r_tol)
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]
    return got


@pytest.mark.parametrize("rows, cols, seed", [(8, 3, 0), (42, 15, 1), (120, 63, 2)])
def test_full_rank_random_systems_take_the_fast_path(rows, cols, seed, pinv_calls):
    local = np.random.default_rng(seed)
    m_red = local.standard_normal((rows, cols)) + 1j * local.standard_normal((rows, cols))
    b_ell = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    _assert_fast_agrees(m_red, b_ell, 1e-12, pinv_calls)


# the bound on cond(M'') that binds at each r_tol: COND_MAX_TIGHT below
# r_tol 1e-8, COND_MAX above (at r_tol 1e-6 it equals THRESHOLD_MARGIN / r_tol),
# and THRESHOLD_MARGIN / r_tol alone at r_tol 1e-4
@pytest.mark.parametrize("r_tol, bound", [
    (1e-12, COND_MAX_TIGHT),
    (9e-9, COND_MAX_TIGHT),
    (1e-8, COND_MAX),
    (1e-6, COND_MAX),
    (1e-4, THRESHOLD_MARGIN / 1e-4),
])
@pytest.mark.parametrize("side, factor", [("inside", 0.9), ("outside", 1.1)])
def test_planted_condition_at_each_gate_bound(r_tol, bound, side, factor, pinv_calls):
    m_red, b_ell = _planted(60, _cond_sv(24, factor * bound), seed=7)
    if side == "inside":
        _assert_fast_agrees(m_red, b_ell, r_tol, pinv_calls)
    else:
        _, _, rank, cond = _assert_fallback_bitwise(m_red, b_ell, r_tol, pinv_calls)
        assert rank == 24
        assert cond == pytest.approx(factor * bound, rel=1e-6)


def test_large_tolerance_falls_back(pinv_calls):
    # r_tol 0.3 truncates at cond 3.3: the pseudoinverse drops singular values
    m_red, b_ell = _planted(30, _cond_sv(10, 10.0), seed=3)
    _, _, rank, _ = _assert_fallback_bitwise(m_red, b_ell, 0.3, pinv_calls)
    assert rank < 10


def test_duplicated_column_falls_back(pinv_calls):
    local = np.random.default_rng(5)
    m_red = local.standard_normal((40, 12)) + 1j * local.standard_normal((40, 12))
    m_red[:, 7] = m_red[:, 2]
    b_ell = local.standard_normal(40) + 1j * local.standard_normal(40)
    _, _, rank, _ = _assert_fallback_bitwise(m_red, b_ell, 1e-12, pinv_calls)
    assert rank == 11


# criterion 4's ell = 0: one K^2-row block against N_C^2 - 1 columns
@pytest.mark.parametrize("k, n_c", [(2, 4), (4, 16)])
def test_underdetermined_system_falls_back(k, n_c, pinv_calls):
    local = np.random.default_rng(k)
    rows, cols = k * k, n_c * n_c - 1
    m_red = local.standard_normal((rows, cols)) + 1j * local.standard_normal((rows, cols))
    b_ell = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    _assert_fallback_bitwise(m_red, b_ell, 1e-12, pinv_calls)


def test_negative_tolerance_rejected():
    m_red, b_ell = _planted(10, _cond_sv(4, 2.0), seed=1)
    with pytest.raises(ValidationError, match="r_tol"):
        solve_constrained(m_red, b_ell, -1.0)


_rows_cols = st.integers(1, 12).flatmap(
    lambda cols: st.tuples(st.integers(cols, 3 * cols), st.just(cols)))


@settings(max_examples=80)
@given(shape=_rows_cols, cond=st.floats(1.0, 100.0), scale=st.floats(1e-3, 1e3),
       r_tol=st.sampled_from([0.0, 1e-12, 1e-6]), seed=st.integers(0, 2**32 - 1))
def test_fast_solve_matches_pseudoinverse_on_well_conditioned_systems(shape, cond, scale,
                                                                     r_tol, seed):
    rows, cols = shape
    local = np.random.default_rng(seed)
    u, _ = np.linalg.qr(local.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(local.standard_normal((cols, cols)))
    a = (u * (scale * _cond_sv(cols, cond))) @ v.T
    b = local.standard_normal(rows)
    fast = normal_equations_solve(a, b, r_tol)
    ref = pinv_thresholded(a, r_tol)
    assert fast is not None
    assert ref.effective_rank == cols
    x_ref = ref.pinv @ b
    assert np.linalg.norm(fast.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert fast.condition_number == pytest.approx(ref.condition_number, rel=1e-10)


def _run(system, b, cfg, dt, q_true, n_delay):
    prop = DelayPropagator(system, b, cfg, dt)
    prop.warm_start([q_true[j] for j in range(cfg.depth + 1)])
    q = np.array([prop.step() for _ in range(n_delay)])
    return q, prop.records


def _both_paths(monkeypatch, pinv_calls, system, b, cfg, dt, q_true, n_delay):
    """(fast run, its fallback count, reference run that never solves by Cholesky)."""
    fast = _run(system, b, cfg, dt, q_true, n_delay)
    n_fallback = len(pinv_calls)
    with monkeypatch.context() as patch:
        patch.setattr(constraint_prop, "normal_equations_solve", lambda a, rhs, r_tol: None)
        ref = _run(system, b, cfg, dt, q_true, n_delay)
    return fast, n_fallback, ref


def test_nc16_stride8_propagation_matches_svd_path(monkeypatch, pinv_calls):
    # criterion 7's configuration at stride 8: every step passes the gate
    dt, n_delay = 0.008268, 16
    system = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(system)
    cfg = DelayConfig(ell=32, stride=8, r_tol=1e-6)
    q_true = reduced_density_series(propagate_coefficients(system, dt, cfg.depth), b)
    (q, recs), n_fallback, (q_ref, recs_ref) = _both_paths(
        monkeypatch, pinv_calls, system, b, cfg, dt, q_true, n_delay)
    assert n_fallback == 0
    assert [r.effective_rank for r in recs] == [r.effective_rank for r in recs_ref]
    assert np.abs(q - q_ref).max() < 1e-11
    cond, cond_ref = (np.array([r.condition_number for r in rs]) for rs in (recs, recs_ref))
    assert np.all(np.abs(cond - cond_ref) <= 1e-8 * cond_ref)


def test_ill_conditioned_steps_stay_on_the_svd_path(monkeypatch, pinv_calls):
    # criterion 6's coarse ell-4 point at r_tol 1e-12: the step condition
    # numbers run from about 1e4 to 5e6, so no step may use the Gram matrix
    dt, n_delay = 0.08268, 300
    system = generate_synthetic_system(4, 2, seed=3)
    b = build_B(system)
    cfg = DelayConfig(ell=4, r_tol=1e-12)
    q_true = reduced_density_series(propagate_coefficients(system, dt, cfg.depth), b)
    (q, recs), n_fallback, (q_ref, recs_ref) = _both_paths(
        monkeypatch, pinv_calls, system, b, cfg, dt, q_true, n_delay)
    ill = [r.condition_number > COND_MAX_TIGHT for r in recs_ref]
    assert all(ill)
    assert n_fallback == n_delay
    assert np.array_equal(q, q_ref)
    assert recs == recs_ref
