import numpy as np
import pytest

from rdmdelay.delay_core import (
    DelayConfig,
    HistoryBuffer,
    LinearSystem,
    ReductionMap,
    build_M,
    complete_reduction_basis,
    mori_zwanzig_propagate,
    propagate_full_state,
    propagate_y,
)
from rdmdelay.numkit import (
    NumericalError,
    ValidationError,
    matexp_hermitian,
    pinv_thresholded,
    random_hermitian,
    random_unitary,
)

rng = np.random.default_rng(507)


def _random_history(n, m_rows, depth, seed=0):
    """Unitary step sequence plus the matching reduced observations."""
    local = np.random.default_rng(seed)
    r = ReductionMap(local.standard_normal((m_rows, n))
                     + 1j * local.standard_normal((m_rows, n)))
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    props = [random_unitary(n, local) for _ in range(depth)]
    hist = HistoryBuffer(depth)
    hist.push(None, r.matrix @ z)
    zs = [z]
    for a in props:
        z = a @ z
        zs.append(z)
        hist.push(a, r.matrix @ z)
    return r, hist, zs, props, local


def test_build_M_no_memory_is_R():
    r, hist, _, _, _ = _random_history(4, 2, 0)
    m = build_M(hist, r, DelayConfig(ell=0))
    assert np.array_equal(m, r.matrix)


def test_build_M_identity_propagators_stack_R():
    n, ell = 3, 4
    r = ReductionMap(rng.standard_normal((2, n)) + 0j)
    hist = HistoryBuffer(ell)
    hist.push(None, np.zeros(2))
    for _ in range(ell):
        hist.push(np.eye(n, dtype=complex), np.zeros(2))
    m = build_M(hist, r, DelayConfig(ell=ell))
    for j in range(ell + 1):
        assert np.allclose(m[2 * j:2 * j + 2], r.matrix, atol=1e-14)


@pytest.mark.parametrize("stride", [1, 3])
def test_build_M_matches_full_state_back_propagation(stride):
    n, m_rows, ell = 5, 2, 3
    r, hist, zs, props, _ = _random_history(n, m_rows, ell * stride, seed=11)
    m = build_M(hist, r, DelayConfig(ell=ell, stride=stride))
    z_now = zs[-1]
    # stacked history of reduced states, spaced stride steps apart
    expect = []
    z_back = z_now
    consumed = 0
    expect.append(r.matrix @ z_back)
    for j in range(1, ell + 1):
        for _ in range(stride):
            z_back = props[-1 - consumed].conj().T @ z_back
            consumed += 1
        expect.append(r.matrix @ z_back)
    assert np.max(np.abs(m @ z_now - np.concatenate(expect))) < 1e-12
    # and it reproduces the stored reduced history directly
    assert np.max(np.abs(m @ z_now - hist.stacked_reduced(
        DelayConfig(ell=ell, stride=stride)))) < 1e-12


def test_build_M_insufficient_history_message():
    r, hist, _, _, _ = _random_history(4, 2, 2)
    with pytest.raises(ValidationError, match="need 6"):
        build_M(hist, r, DelayConfig(ell=3, stride=2))


def test_propagate_y_square_reduction_exact():
    n = 4
    local = np.random.default_rng(3)
    r = ReductionMap(random_unitary(n, local))  # m = n, invertible
    a = random_unitary(n, local)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist = HistoryBuffer(1)
    hist.push(None, r.matrix @ z)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=0))
    assert np.max(np.abs(y_next - r.matrix @ (a @ z))) < 1e-12
    assert diag.effective_rank == n


def test_propagate_y_matches_full_state_oracle():
    # n = 4, m = 2 needs ell >= n/m - 1 = 1 delay block
    n, m_rows, ell = 4, 2, 1
    r, hist, zs, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=ell))
    assert np.max(np.abs(y_next - r.matrix @ (a @ zs[-1]))) < 1e-10
    assert not diag.rank_deficient


def test_propagate_y_warns_when_rank_deficient():
    r, hist, _, _, local = _random_history(6, 2, 1, seed=4)
    a = random_unitary(6, local)
    with pytest.warns(RuntimeWarning):
        propagate_y(hist, r, a, DelayConfig(ell=1))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("age", [0, 1], ids=["newest", "oldest"])
def test_propagate_y_non_finite_history_raises_numerical_error(bad, age):
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    hist.reduced[-1 - age][1] = bad
    with pytest.raises(NumericalError, match="solve stage"):
        propagate_y(hist, r, a, DelayConfig(ell=ell))


def test_propagate_y_non_finite_propagator_names_propagation_stage():
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    a[0, 0] = np.inf
    with pytest.raises(NumericalError, match="propagation stage"):
        propagate_y(hist, r, a, DelayConfig(ell=ell))


def _invertible_history(sigma, seed=33):
    """n = 4, m = 2, ell = 1 history under A = U diag(sigma) V, U and V unitary."""
    local = np.random.default_rng(seed)
    n = len(sigma)
    r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
    a = random_unitary(n, local) @ np.diag(sigma) @ random_unitary(n, local)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist = HistoryBuffer(1)
    hist.push(None, r.matrix @ z)
    hist.push(a, r.matrix @ (a @ z))
    return r, hist, a, a @ z


def test_propagate_y_invertible_propagators_step_back_with_the_inverse():
    # the delay equation holds for any invertible A(t): with unitary=False
    # build_M steps back with A^-1 instead of A^dagger
    sigma = np.random.default_rng(8).uniform(0.5, 2.0, 4)
    r, hist, a, z = _invertible_history(sigma)
    exact = r.matrix @ (a @ z)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=1), unitary=False)
    assert np.max(np.abs(y_next - exact)) < 1e-12
    assert not diag.rank_deficient
    # the same A taken as unitary misses by O(1): the test tells the paths apart
    y_wrong, _ = propagate_y(hist, r, a, DelayConfig(ell=1))
    assert np.max(np.abs(y_wrong - exact)) > 1e-2


def test_propagate_y_ill_conditioned_propagator_raises_numerical_error():
    r, hist, a, _ = _invertible_history(np.array([1.0, 1.0, 1.0, 1e-13]))
    with pytest.raises(NumericalError, match="condition number"):
        propagate_y(hist, r, a, DelayConfig(ell=1), unitary=False)


def test_near_identity_propagators_need_stride():
    # A barely differs from I, so adjacent history rows are nearly
    # dependent; a long stride restores the rank.
    n, m_rows = 4, 2
    local = np.random.default_rng(9)
    h = random_hermitian(n, local)
    a = matexp_hermitian(h, -1e-8j)
    r = ReductionMap(local.standard_normal((m_rows, n)) + 0j)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    stride = 10**6
    hist = HistoryBuffer(stride)
    hist.push(None, r.matrix @ z)
    for _ in range(stride):
        z = a @ z
        hist.push(a, r.matrix @ z)
    m_dense = build_M(hist, r, DelayConfig(ell=1, stride=1))
    m_strided = build_M(hist, r, DelayConfig(ell=1, stride=stride))
    rank_dense = pinv_thresholded(m_dense, 1e-6).effective_rank
    rank_strided = pinv_thresholded(m_strided, 1e-6).effective_rank
    assert rank_dense < n
    assert rank_strided == n


def test_complete_reduction_basis_coordinate_projection():
    r = ReductionMap(np.hstack([np.eye(2), np.zeros((2, 3))]))
    rt = complete_reduction_basis(r)
    # complement rows live entirely on the remaining coordinates
    assert np.max(np.abs(rt[:, :2])) < 1e-12
    assert np.linalg.matrix_rank(rt[:, 2:]) == 3


def test_complete_reduction_basis_invertible_stack():
    r = ReductionMap(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    rt = complete_reduction_basis(r)
    assert abs(np.linalg.det(np.vstack([r.matrix, rt]))) > 1e-10


def test_complete_reduction_basis_orthonormal_rows():
    q = random_unitary(5, rng)[:2]
    rt = complete_reduction_basis(ReductionMap(q))
    big = np.vstack([q, rt])
    assert np.max(np.abs(big @ big.conj().T - np.eye(5))) < 1e-12


def test_mori_zwanzig_identity_dynamics():
    r = ReductionMap(np.hstack([np.eye(2), np.zeros((2, 2))]) + 0j)
    y0 = np.array([1.0, 2.0])
    traj, diverged = mori_zwanzig_propagate(np.eye(4), r, y0, np.zeros(2), 20)
    assert not diverged
    for y in traj:
        assert np.max(np.abs(y - y0)) < 1e-12


def test_mori_zwanzig_first_step_formula():
    local = np.random.default_rng(17)
    a = random_unitary(5, local)
    q = random_unitary(5, local)[:2]
    r = ReductionMap(q)
    rt = complete_reduction_basis(r)
    rbig = np.vstack([q, rt])
    b = rbig @ a @ np.linalg.inv(rbig)
    y0 = local.standard_normal(2) + 1j * local.standard_normal(2)
    yt0 = local.standard_normal(3) + 1j * local.standard_normal(3)
    traj, _ = mori_zwanzig_propagate(a, r, y0, yt0, 1, rtilde=rt)
    assert np.max(np.abs(traj[1] - (b[:2, :2] @ y0 + b[:2, 2:] @ yt0))) < 1e-12


def test_mori_zwanzig_diagonal_unitary_long_run():
    local = np.random.default_rng(23)
    n, m = 8, 4
    a = np.diag(np.exp(1j * local.uniform(-np.pi, np.pi, n)))
    q = random_unitary(n, local)[:m]
    r = ReductionMap(q)
    rt = complete_reduction_basis(r)
    z0 = local.standard_normal(n) + 1j * local.standard_normal(n)
    sysm = LinearSystem(n, lambda t: a)
    direct = propagate_full_state(sysm, z0, 200)
    traj, diverged = mori_zwanzig_propagate(a, r, q @ z0, rt @ z0, 200, rtilde=rt)
    err = max(np.max(np.abs(traj[t] - q @ direct[t])) for t in range(201))
    assert err < 1e-8
    assert not diverged


def _mz_reference(a, r, y0, ytilde0, steps, rtilde, truncate_memory_half=False):
    """The Mori-Zwanzig sum as a per-term double loop, the reference for the
    stacked-kernel sum."""
    rbig = np.vstack([r.matrix, rtilde])
    b = rbig @ a @ np.linalg.inv(rbig)
    m = r.m
    b11, b12, b21, b22 = b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:]
    traj = [np.asarray(y0, dtype=complex)]
    kernels = []
    b22_pow = np.eye(b22.shape[0], dtype=complex)
    norm0 = np.linalg.norm(y0)
    diverged = False
    for t in range(steps):
        y_next = b11 @ traj[t] + b12 @ (b22_pow @ ytilde0)
        n_terms = (t + 1) // 2 if truncate_memory_half else t
        for s in range(n_terms):
            y_next = y_next + kernels[s] @ traj[t - 1 - s]
        kernels.append(b12 @ b22_pow @ b21)
        b22_pow = b22 @ b22_pow
        traj.append(y_next)
        diverged = diverged or np.linalg.norm(y_next) > 1e3 * norm0
    return traj, diverged


def _mz_case(n, m, kind, seed=31):
    local = np.random.default_rng(seed)
    if kind == "diagonal":
        a = np.diag(np.exp(1j * local.uniform(-np.pi, np.pi, n)))
    elif kind == "growing":
        a = 1.05 * random_unitary(n, local)
    else:
        a = random_unitary(n, local)
    r = ReductionMap(np.eye(n)[:m] + 0j)
    rt = complete_reduction_basis(r)
    if kind == "skewed":
        # a non-orthonormal completion: mixed and rescaled complement rows
        # plus a share of R's rows, still invertible when stacked with R
        mix = np.eye(n - m) + 0.3 * local.standard_normal((n - m, n - m))
        rt = 2.0 * mix @ rt + 0.5 * local.standard_normal((n - m, m)) @ r.matrix
    z0 = local.standard_normal(n) + 1j * local.standard_normal(n)
    return a, r, r.matrix @ z0, rt @ z0, rt


@pytest.mark.parametrize("n, m, kind, steps, truncate, diverges", [
    (16, 4, "dense", 200, False, False),
    (8, 4, "diagonal", 200, False, False),
    (8, 2, "dense", 61, True, False),
    (8, 2, "dense", 60, True, False),
    (6, 3, "dense", 0, False, False),
    (6, 3, "dense", 1, False, False),
    (6, 3, "dense", 1, True, False),
    (7, 3, "skewed", 80, False, False),
    # max ||y(t)|| / ||y(0)|| is 3.0e2 at 120 steps and 2.9e3 at 160
    (6, 2, "growing", 120, False, False),
    (6, 2, "growing", 160, False, True),
])
def test_mori_zwanzig_matches_double_loop(n, m, kind, steps, truncate, diverges):
    a, r, y0, yt0, rt = _mz_case(n, m, kind)
    traj, diverged = mori_zwanzig_propagate(a, r, y0, yt0, steps, rtilde=rt,
                                            truncate_memory_half=truncate)
    ref, ref_diverged = _mz_reference(a, r, y0, yt0, steps, rt, truncate)
    ref = np.asarray(ref)
    assert traj.shape == (steps + 1, m)
    assert diverged == ref_diverged == diverges
    assert np.max(np.abs(traj - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("steps", [-1, 2.5, True])
def test_mori_zwanzig_rejects_bad_steps(steps):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    with pytest.raises(ValidationError, match="steps"):
        mori_zwanzig_propagate(a, r, y0, yt0, steps, rtilde=rt)


@pytest.mark.parametrize("which", ["y0", "ytilde0"])
def test_mori_zwanzig_rejects_wrong_length_start(which):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    args = {"y0": y0, "ytilde0": yt0}
    args[which] = np.append(args[which], 1.0)
    with pytest.raises(ValidationError, match=which):
        mori_zwanzig_propagate(a, r, args["y0"], args["ytilde0"], 5, rtilde=rt)


@pytest.mark.parametrize("which, value", [
    ("a", np.inf), ("a", np.nan), ("y0", np.nan), ("ytilde0", -np.inf)])
def test_mori_zwanzig_rejects_non_finite_input(which, value):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    args = {"a": a.copy(), "y0": y0.copy(), "ytilde0": yt0.copy()}
    args[which].flat[0] = value
    with pytest.raises(ValidationError, match="finite"):
        mori_zwanzig_propagate(args["a"], r, args["y0"], args["ytilde0"], 5, rtilde=rt)


def test_mori_zwanzig_overflow_names_first_step():
    r = ReductionMap(np.eye(4)[:2] + 0j)
    # y(t) = 1e200^t y(0): y(1) is finite, y(2) overflows
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match=r"y\(2\)"):
            mori_zwanzig_propagate(1e200 * np.eye(4), r, np.ones(2), np.ones(2), 6)
