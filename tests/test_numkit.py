import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay.ci_model import build_B
from rdmdelay.constraint_prop import DelayPropagator, assemble_constrained_system
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import (
    ValidationError,
    flatten,
    hermiticity_defect,
    matexp_hermitian,
    normal_equations_factor,
    pinv_thresholded,
    random_hermitian,
    random_unitary,
    require_hermitian,
)

rng = np.random.default_rng(81)


def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_vector_block():
    a = rng.standard_normal((3, 3))
    e11 = np.zeros((2, 2))
    e11[0, 0] = 1.0
    out = np.kron(e11, a)
    assert np.allclose(out[:3, :3], a)
    assert np.count_nonzero(out[3:, :]) == 0
    assert np.count_nonzero(out[:, 3:]) == 0


def test_kron_matches_loop_definition():
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    out = np.kron(a, b)
    for i in range(2):
        for j in range(3):
            for p in range(3):
                for q in range(2):
                    # vectorized complex multiply may differ by 1 ulp
                    assert abs(out[i * 3 + p, j * 2 + q] - a[i, j] * b[p, q]) < 1e-15


def test_matexp_zero_exponent():
    h = random_hermitian(4, rng)
    assert np.allclose(matexp_hermitian(h, 0.0), np.eye(4), atol=1e-14)


def test_matexp_diagonal_phases():
    dt = 0.3
    h = np.diag([0.7, -1.2])
    out = matexp_hermitian(h, -1j * dt)
    expect = np.diag(np.exp(-1j * np.array([0.7, -1.2]) * dt))
    assert np.allclose(out, expect, atol=1e-14)


def test_matexp_matches_taylor_series():
    h = random_hermitian(4, rng)
    scale = -0.01j
    term = np.eye(4, dtype=complex)
    total = np.eye(4, dtype=complex)
    for n in range(1, 30):
        term = term @ (scale * h) / n
        total += term
    assert np.max(np.abs(matexp_hermitian(h, scale) - total)) < 1e-12


def test_matexp_unitary_for_imaginary_scale():
    h = random_hermitian(5, rng)
    u = matexp_hermitian(h, -0.37j)
    assert np.max(np.abs(u @ u.conj().T - np.eye(5))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 16), count=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(1e-4, 1.0))
def test_matexp_stack_equals_per_matrix_calls_bitwise(n, count, seed, dt):
    local = np.random.default_rng(seed)
    h = np.stack([random_hermitian(n, local, scale=10.0) for _ in range(count)])
    stacked = matexp_hermitian(h, -1j * dt)
    single = np.stack([matexp_hermitian(m, -1j * dt) for m in h])
    assert stacked.shape == (count, n, n)
    assert stacked.tobytes() == single.tobytes()


def test_matexp_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        matexp_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), -1j)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matexp_rejects_non_finite(bad):
    # a NaN Hermiticity defect compares False against any tolerance
    with pytest.raises(ValidationError, match="non-finite"):
        matexp_hermitian(np.array([[1.0, bad], [bad, 2.0]]), -1j)


def test_pinv_identity():
    res = pinv_thresholded(np.eye(3), 1e-12)
    assert np.allclose(res.pinv, np.eye(3), atol=1e-14)
    assert res.effective_rank == 3


def test_pinv_forced_truncation():
    res = pinv_thresholded(np.diag([2.0, 1e-15]), 1e-12)
    assert np.allclose(res.pinv, np.diag([0.5, 0.0]))
    assert res.effective_rank == 1


def test_pinv_left_inverse_full_column_rank():
    m = rng.standard_normal((12, 4)) + 1j * rng.standard_normal((12, 4))
    res = pinv_thresholded(m, 1e-12)
    assert np.max(np.abs(res.pinv @ m - np.eye(4))) < 1e-10
    assert res.effective_rank == 4


def _pinv_complex_reference(m, r_tol):
    """The thresholded pseudoinverse with every input cast to complex128."""
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > r_tol * s[0]
    rank = int(np.count_nonzero(keep))
    s_inv = np.zeros_like(s)
    s_inv[keep] = 1.0 / s[keep]
    cond = float(s[0] / s[:rank].min())
    return vh.conj().T @ (s_inv[:, None] * u.conj().T), rank, cond


def _real_case(name):
    """(real matrix, right-hand side, r_tol, expected rank)."""
    local = np.random.default_rng(2718)
    if name == "full-rank":
        m = local.standard_normal((40, 12))
        return m, local.standard_normal(40), 1e-12, 12
    if name == "duplicate-column":
        m = local.standard_normal((40, 12))
        m[:, 7] = m[:, 2]
        return m, local.standard_normal(40), 1e-12, 11
    if name == "planted-threshold":
        # two singular values 1.5x above r_tol * sigma_1, two 1.5x below
        r_tol = 1e-4
        sv = np.concatenate([np.logspace(0, -3, 8), r_tol * np.array([2.0, 1.5, 1 / 1.5, 0.5])])
        u, _ = np.linalg.qr(local.standard_normal((50, sv.size)))
        v, _ = np.linalg.qr(local.standard_normal((sv.size, sv.size)))
        return (u * sv) @ v.T, local.standard_normal(50), r_tol, 10
    # the real system the propagator solves on the first constrained delay
    # step at N_C=16, ell 32, stride 8 (criterion 7's configuration)
    s = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(s)
    cfg = DelayConfig(ell=32, stride=8, r_tol=1e-6)
    dt = 0.008268
    q_true = reduced_density_series(propagate_coefficients(s, dt, cfg.depth), b)
    prop = DelayPropagator(s, b, cfg, dt)
    prop.warm_start(list(q_true))
    # at stride > 1 the propagator keeps no stack: M is block 0 and blocks
    # 1..ell from the hook its steps build M with
    m = np.empty((cfg.ell + 1, *prop._memory.shape[1:]), dtype=complex)
    m[0] = prop._memory[0]
    prop._memory_blocks(1, cfg.ell + 1, m[1:])
    a, rhs = assemble_constrained_system(m.reshape(-1, 256), prop.spec,
                                         prop._stacked_history(), 4)
    prop.step()
    assert np.array_equal(a, prop._a)  # the system the step solved
    return a, rhs, cfg.r_tol, 255


@pytest.mark.parametrize("name", ["full-rank", "duplicate-column", "planted-threshold",
                                  "stacked-nc16-ell32-k8"])
def test_pinv_real_input_matches_complex_reference(name):
    m, rhs, r_tol, rank = _real_case(name)
    res = pinv_thresholded(m, r_tol)
    ref_pinv, ref_rank, ref_cond = _pinv_complex_reference(m, r_tol)
    assert res.pinv.dtype == np.float64
    assert res.effective_rank == ref_rank == rank
    assert abs(res.condition_number - ref_cond) <= 1e-10 * ref_cond
    x, x_ref = res.pinv @ rhs, ref_pinv @ rhs
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


# a duplicated last column: rank 7 of 8 when tall or square; the wide case
# truncates at r_tol 0.3 instead
@pytest.mark.parametrize("shape, r_tol, rank", [((30, 8), 1e-12, 7), ((8, 8), 1e-12, 7),
                                                ((6, 9), 0.3, 5)])
def test_pinv_complex_input_bitwise_equal_to_reference(shape, r_tol, rank):
    local = np.random.default_rng(314)
    m = local.standard_normal(shape) + 1j * local.standard_normal(shape)
    m[:, -1] = m[:, 0]
    res = pinv_thresholded(m, r_tol)
    ref_pinv, ref_rank, ref_cond = _pinv_complex_reference(m, r_tol)
    assert res.pinv.dtype == np.complex128
    assert np.array_equal(res.pinv, ref_pinv)
    assert (res.effective_rank, res.condition_number) == (ref_rank, ref_cond)
    assert ref_rank == rank


def test_pinv_negative_tolerance_rejected():
    with pytest.raises(ValidationError):
        pinv_thresholded(np.eye(2), -1.0)


@pytest.mark.parametrize("r_tol", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("solver", [pinv_thresholded, normal_equations_factor])
def test_tolerance_must_be_finite_and_nonnegative(solver, r_tol):
    # a NaN passes any one-sided comparison: the Cholesky gate would accept
    # every system and the pseudoinverse would keep no singular value
    with pytest.raises(ValidationError, match="r_tol must be finite and >= 0"):
        solver(np.eye(3), r_tol)


def test_flatten_column_major():
    p = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(flatten(p), np.array([1.0, 3.0, 2.0, 4.0]))


def test_flatten_round_trip():
    p = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(flatten(p).reshape((4, 4), order="F"), p)


def test_random_unitary_is_unitary():
    u = random_unitary(6, rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(6))) < 1e-12


def test_hermiticity_helpers():
    h = random_hermitian(4, rng)
    assert hermiticity_defect(h) < 1e-15
    require_hermitian(h)
    with pytest.raises(ValidationError):
        require_hermitian(h + 1e-6 * 1j * np.eye(4) @ np.diag([1, 0, 0, 0]))
