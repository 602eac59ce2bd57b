"""The normal-equations fast path of the constrained solve against the SVD path.

`solve_constrained` factors its real system with
`delay_core.factor_least_squares`: a well-conditioned step by the Cholesky
factor of `numkit.normal_equations_factor`, applied with one corrected
semi-normal step (`LeastSquaresFactor.solve`), every other step through the
thresholded pseudoinverse.  The reference is the pseudoinverse path alone:
`pinv_thresholded` called directly, or the propagator with
`normal_equations_factor` patched to decline every step.
Fast-path steps must report the same rank and agree to rounding level;
fallback steps must be bit-for-bit the reference.  Fallback steps are
counted through the `delay_core.pinv_thresholded` global they call.
The gate's two end eigenvalues (`numkit.extreme_eigenvalues`) are checked
against the full spectrum from `np.linalg.eigvalsh`, which the gate used
to compute, and against the SVD.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from rdmdelay import delay_core, numkit
from rdmdelay.ci_model import build_B
from rdmdelay.constraint_prop import DelayPropagator, solve_constrained
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import (
    COND_MAX,
    COND_MAX_TIGHT,
    THRESHOLD_MARGIN,
    NumericalError,
    ValidationError,
    extreme_eigenvalues,
    normal_equations_factor,
    pinv_thresholded,
)

EPS = np.finfo(float).eps


@pytest.fixture
def pinv_calls(monkeypatch):
    """Number of calls of `pinv_thresholded` made through delay_core."""
    calls = []
    original = delay_core.pinv_thresholded

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(delay_core, "pinv_thresholded", counting)
    return calls


def _svd_reference(a, b, r_tol):
    """The pseudoinverse path of `solve_constrained`, on its own."""
    pinv, rank, cond = pinv_thresholded(a, r_tol)
    x = pinv @ b
    return x, float(np.linalg.norm(a @ x - b)), rank, cond


def _stacked(m_red, b_ell):
    """The real system of the real and imaginary parts of every row."""
    return np.vstack([m_red.real, m_red.imag]), np.concatenate([b_ell.real, b_ell.imag])


def _planted(rows, sv, seed, noise=1e-6):
    """A real 2 rows x len(sv) system a with singular values sv, and b.

    b is a consistent right-hand side plus a small perturbation, so that the
    least-squares solution is well determined at every planted condition.
    """
    local = np.random.default_rng(seed)
    cols = len(sv)
    u, _ = np.linalg.qr(local.standard_normal((2 * rows, cols)))
    v, _ = np.linalg.qr(local.standard_normal((cols, cols)))
    a = (u * sv) @ v.T
    return a, a @ local.standard_normal(cols) + noise * local.standard_normal(2 * rows)


def _cond_sv(cols, cond):
    return np.geomspace(1.0, 1.0 / cond, cols)


def _assert_fast_agrees(m_red, b_ell, r_tol, pinv_calls):
    x, residual, rank, cond, factor = solve_constrained(m_red, b_ell, r_tol)
    assert not pinv_calls, "expected the normal-equations path"
    assert factor.cholesky is not None and factor.pinv is None
    x_ref, res_ref, rank_ref, cond_ref = _svd_reference(m_red, b_ell, r_tol)
    assert rank == rank_ref == m_red.shape[1]
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert residual == pytest.approx(res_ref, rel=1e-8)
    assert cond == pytest.approx(cond_ref, rel=1e-8)


def _assert_fallback_bitwise(m_red, b_ell, r_tol, pinv_calls):
    solved = solve_constrained(m_red, b_ell, r_tol)
    assert len(pinv_calls) == 1, "expected the pseudoinverse path"
    assert solved.factor.cholesky is None and solved.factor.pinv is not None
    got = solved[:4]
    ref = _svd_reference(m_red, b_ell, r_tol)
    assert np.array_equal(got[0], ref[0])
    assert got[1:] == ref[1:]
    return got


@pytest.mark.parametrize("rows, cols, seed", [(8, 3, 0), (42, 15, 1), (120, 63, 2)])
def test_full_rank_random_systems_take_the_fast_path(rows, cols, seed, pinv_calls):
    local = np.random.default_rng(seed)
    m_red = local.standard_normal((rows, cols)) + 1j * local.standard_normal((rows, cols))
    b_ell = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    _assert_fast_agrees(*_stacked(m_red, b_ell), 1e-12, pinv_calls)


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
    _, _, rank, _ = _assert_fallback_bitwise(*_stacked(m_red, b_ell), 1e-12, pinv_calls)
    assert rank == 11


# criterion 4's ell = 0: one K^2-row block against N_C^2 - 1 columns
@pytest.mark.parametrize("k, n_c", [(2, 4), (4, 16)])
def test_underdetermined_system_falls_back(k, n_c, pinv_calls):
    local = np.random.default_rng(k)
    rows, cols = k * k, n_c * n_c - 1
    m_red = local.standard_normal((rows, cols)) + 1j * local.standard_normal((rows, cols))
    b_ell = local.standard_normal(rows) + 1j * local.standard_normal(rows)
    _assert_fallback_bitwise(*_stacked(m_red, b_ell), 1e-12, pinv_calls)


def test_negative_tolerance_rejected():
    m_red, b_ell = _planted(10, _cond_sv(4, 2.0), seed=1)
    with pytest.raises(ValidationError, match="r_tol"):
        solve_constrained(m_red, b_ell, -1.0)


def test_complex_system_rejected():
    # the solve is real by design; assemble_constrained_system builds its system
    a, b = _planted(10, _cond_sv(4, 2.0), seed=1)
    for m_red, b_ell in ((a + 0j, b), (a, b + 0j)):
        with pytest.raises(ValidationError, match="assemble_constrained_system"):
            solve_constrained(m_red, b_ell, 1e-12)


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
    fast = normal_equations_factor(a, r_tol)
    ref = pinv_thresholded(a, r_tol)
    assert fast is not None
    assert fast.effective_rank == ref.effective_rank == cols
    x_ref = ref.pinv @ b
    assert np.linalg.norm(fast.solve(b) - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
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
        patch.setattr(delay_core, "normal_equations_factor", lambda a, r_tol: None)
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


def _planted_real(cols, sv, seed):
    """A (2 cols + 1) x cols real matrix with singular values sv."""
    local = np.random.default_rng(seed)
    u, _ = np.linalg.qr(local.standard_normal((2 * cols + 1, cols)))
    v, _ = np.linalg.qr(local.standard_normal((cols, cols)))
    return (u * sv) @ v.T


def _clustered_ends(cols):
    # the two largest and the two smallest singular values 1e-12 apart
    sv = _cond_sv(cols, 100.0)
    sv[1], sv[-2] = sv[0] * (1 - 1e-12), sv[-1] * (1 + 1e-12)
    return sv


_SPECTRA = {
    "graded": lambda cols: _cond_sv(cols, 100.0),
    "at-cond-max": lambda cols: _cond_sv(cols, COND_MAX),  # the loosest bound
    "past-cond-max": lambda cols: _cond_sv(cols, 1.01 * COND_MAX),
    "clustered": _clustered_ends,
    # N = I up to rounding: bisection by index can lose count in the cluster
    "degenerate": lambda cols: np.ones(cols),
}


@pytest.mark.parametrize("cols, spectrum", [
    (cols, name) for cols in (1, 2, 15, 255) for name in _SPECTRA
    if cols >= 4 or name != "clustered"])
def test_extreme_eigenvalues_match_eigvalsh_and_svd(cols, spectrum):
    # Both gates reduce N by the same Householder tridiagonalization and
    # differ only in the last stage, each backward stable, so by Weyl's
    # theorem the ends agree with eigvalsh's to 4 n eps lambda_max.  The SVD
    # of a sees no error from forming N = a^T a, which moves lambda_min by
    # about n eps ||a||^2, so sqrt(lambda_max / lambda_min) agrees with
    # sigma_1 / sigma_n to a relative 4 n eps cond(a)^2.
    a = _planted_real(cols, _SPECTRA[spectrum](cols), seed=cols)
    gram = a.T @ a
    lam_min, lam_max = extreme_eigenvalues(gram)
    lam = np.linalg.eigvalsh(gram)
    tol = 4 * cols * EPS * lam[-1]
    assert abs(lam_min - lam[0]) <= tol
    assert abs(lam_max - lam[-1]) <= tol
    s = np.linalg.svd(a, compute_uv=False)
    cond_svd = s[0] / s[-1]
    assert np.sqrt(lam_max / lam_min) == pytest.approx(cond_svd,
                                                       rel=4 * cols * EPS * cond_svd ** 2)


def test_extreme_eigenvalues_of_an_orthogonal_system():
    # hypothesis found this one: N = I to rounding, and bisection by index
    # reported INFO 2 (eigenvalue not found) for lambda_max
    local = np.random.default_rng(9064)
    u, _ = np.linalg.qr(local.standard_normal((8, 8)))
    v, _ = np.linalg.qr(local.standard_normal((8, 8)))
    lam_min, lam_max = extreme_eigenvalues((u @ v.T).T @ (u @ v.T))
    assert lam_min == pytest.approx(1.0, abs=32 * EPS)
    assert lam_max == pytest.approx(1.0, abs=32 * EPS)


@pytest.mark.parametrize("order", ["C", "F"])
def test_extreme_eigenvalues_leaves_its_input_unchanged(order):
    a = _planted_real(15, _cond_sv(15, 30.0), seed=3)
    gram = np.asarray(a.T @ a, order=order)
    before = gram.copy(order="K")
    ends = extreme_eigenvalues(gram)
    assert gram.tobytes(order="A") == before.tobytes(order="A")
    assert gram.flags.c_contiguous == (order == "C")
    assert ends == extreme_eigenvalues(before)


def _random_real(cols, seed):
    local = np.random.default_rng(seed)
    return local.standard_normal((2 * cols + 3, cols))


@pytest.mark.parametrize("cols", [1, 2, 15, 255])
@pytest.mark.parametrize("system", ["random", "planted graded", "planted degenerate"])
def test_gate_reduces_its_gram_in_place_to_the_ends_of_a_copy(monkeypatch, cols, system):
    # the gate hands N's F-ordered transpose to dsytrd to overwrite; the
    # ends are bit for bit those extreme_eigenvalues finds on a copy of N
    a = (_random_real(cols, seed=cols) if system == "random" else
         _planted_real(cols, _SPECTRA[system.split()[1]](cols), seed=cols))
    seen = []
    original = numkit._extreme_eigenvalues

    def recording(s, overwrite):
        in_place = s.flags.f_contiguous and overwrite
        ends = original(s, overwrite)
        seen.append((in_place, ends))
        return ends

    monkeypatch.setattr(numkit, "_extreme_eigenvalues", recording)
    factor = normal_equations_factor(a, 1e-6)
    monkeypatch.undo()
    assert factor is not None
    ends = extreme_eigenvalues(a.T @ a)
    assert seen == [(True, ends)]
    assert factor.condition_number == float(np.sqrt(ends[1] / ends[0]))


@pytest.mark.parametrize("found, info", [(0, 2), (0, 4), (0, 0)])
def test_failed_bisection_takes_the_whole_tridiagonal_spectrum(monkeypatch, found, info):
    a = _planted_real(15, _cond_sv(15, 30.0), seed=6)
    gram = a.T @ a
    original = lapack.dstebz

    def failing(d, e, rng, vl, vu, il, iu, tol, order):
        _, w, iblock, isplit, _ = original(d, e, rng, vl, vu, il, iu, tol, order)
        return found, w, iblock, isplit, info

    monkeypatch.setattr(lapack, "dstebz", failing)
    lam = np.linalg.eigvalsh(gram)
    lam_min, lam_max = extreme_eigenvalues(gram)
    assert abs(lam_min - lam[0]) <= 4 * 15 * EPS * lam[-1]
    assert abs(lam_max - lam[-1]) <= 4 * 15 * EPS * lam[-1]


def _eigvalsh_gate(a, cond_max):
    """Whether the gate as it was with the full spectrum of N passes a."""
    gram = a.T @ a
    factor, info = lapack.dpotrf(gram, lower=0, clean=0)
    if info != 0 or gram.diagonal().max() > cond_max ** 2 * factor.diagonal().min() ** 2:
        return False, np.nan
    lam = np.linalg.eigvalsh(gram)
    return bool(lam[0] > 0 and lam[-1] <= cond_max ** 2 * lam[0]), lam[-1] / lam[0]


# cond(a) as a multiple of the bound: relative steps of 1e-7 put cond(N)
# 2e-7 from the bound, outside the 1e-8 band in which rounding may decide
@pytest.mark.parametrize("r_tol, bound", [
    (1e-12, COND_MAX_TIGHT),
    (1e-6, COND_MAX),
    (1e-4, THRESHOLD_MARGIN / 1e-4),
])
@pytest.mark.parametrize("cols", [15, 63])
def test_gate_decisions_match_the_eigvalsh_gate(r_tol, bound, cols):
    decided = []
    for factor in (0.5, 0.999, 1 - 1e-6, 1 - 1e-7, 1.0, 1 + 1e-7, 1 + 1e-6, 1.001, 2.0):
        a = _planted_real(cols, _cond_sv(cols, factor * bound), seed=cols)
        passes, cond_n = _eigvalsh_gate(a, bound)
        if abs(cond_n / bound ** 2 - 1) < 1e-8:
            continue
        assert (normal_equations_factor(a, r_tol) is not None) == passes, factor
        decided.append(passes)
    assert True in decided and False in decided


def test_fast_path_makes_no_full_eigendecomposition(monkeypatch):
    a = _planted_real(63, _cond_sv(63, 50.0), seed=9)

    def refuse(*args, **kwargs):
        raise AssertionError("the gate computed the full spectrum")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", refuse)
        fast = normal_equations_factor(a, 1e-6)
    assert fast is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_system_raises_numerical_error(bad):
    a = _planted_real(10, _cond_sv(10, 5.0), seed=2)
    a[7, 3] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        normal_equations_factor(a, 1e-12)


@pytest.mark.filterwarnings("error")
def test_overflowing_gram_of_a_finite_system_falls_back():
    # a^T a overflows, a itself does not: the pseudoinverse path solves it
    a = 1e160 * _planted_real(10, _cond_sv(10, 5.0), seed=2)
    assert normal_equations_factor(a, 1e-12) is None
    assert pinv_thresholded(a, 1e-12).effective_rank == 10
