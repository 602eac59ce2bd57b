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
