import numpy as np
import pytest

from rdmdelay.ci_model import FieldProfile, build_B, build_one_electron_system
from rdmdelay.ground_truth import (
    eigenvalue_drift,
    full_density_series,
    propagate_coefficients,
    reduced_density_series,
)
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import ValidationError, flatten, matexp_hermitian

rng = np.random.default_rng(64)


def _quiet_system():
    return generate_synthetic_system(4, 2, seed=1, field=FieldProfile())


def test_field_free_evolution_is_stationary_phase():
    s = _quiet_system()
    a0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a0 /= np.linalg.norm(a0)
    run = propagate_coefficients(s, 0.05, 200, a0=a0)
    t = run.times()
    expect = a0[None, :] * np.exp(-1j * np.outer(t, s.h0_diag))
    assert np.max(np.abs(run.coefficients - expect)) < 1e-10
    assert np.max(np.abs(np.abs(run.coefficients) - np.abs(a0))) < 1e-12


def test_norm_is_conserved():
    s = generate_synthetic_system(4, 2, seed=2)
    run = propagate_coefficients(s, 0.08268, 500)
    norms = np.linalg.norm(run.coefficients, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_final_time_bookkeeping():
    s = _quiet_system()
    run = propagate_coefficients(s, 0.008268, 20000)
    assert run.times()[-1] == pytest.approx(165.36, abs=1e-9)
    assert run.coefficients.shape == (20001, 4)


def test_invalid_inputs_rejected():
    s = _quiet_system()
    for dt in (-0.1, np.inf, np.nan):
        with pytest.raises(ValidationError):
            propagate_coefficients(s, dt, 10)
    with pytest.raises(ValidationError):
        propagate_coefficients(s, 0.1, 10, a0=np.array([1.0, 0.0, 0.0, 2.0]))
    # a NaN norm would pass the unit-norm check and make the trajectory NaN
    with pytest.raises(ValidationError, match="a0 has non-finite"):
        propagate_coefficients(s, 0.1, 10, a0=np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(ValidationError, match="n_steps"):
        propagate_coefficients(s, 0.1, -1)
    # beyond numpy's array size limit, so nothing is allocated
    with pytest.raises(ValidationError, match="n_steps = 1e\\+30 is too large"):
        propagate_coefficients(s, 0.1, 10**30)


def test_full_density_series_rank_one_trace_one():
    s = generate_synthetic_system(4, 2, seed=3)
    run = propagate_coefficients(s, 0.08268, 50)
    ps = full_density_series(run)
    for p in ps[::10]:
        assert np.max(np.abs(p - p.conj().T)) < 1e-14
        assert abs(np.trace(p).real - 1.0) < 1e-12
        evals = np.sort(np.linalg.eigvalsh(p))
        assert np.max(np.abs(evals[:-1])) < 1e-12
        assert abs(evals[-1] - 1.0) < 1e-12


def test_kronecker_step_consistency():
    # vec(P(t+dt)) = (exp(iH^T dt) (x) exp(-iH dt)) vec(P(t))
    s = generate_synthetic_system(4, 2, seed=4)
    dt = 0.08268
    run = propagate_coefficients(s, dt, 20)
    ps = full_density_series(run)
    for j in range(20):
        h = s.hamiltonian(j * dt)
        e = matexp_hermitian(h, -1j * dt)
        prop = np.kron(e.conj(), e)
        assert np.max(np.abs(prop @ flatten(ps[j]) - flatten(ps[j + 1]))) < 1e-11


def test_reduced_series_hermitian_constant_trace():
    s = generate_synthetic_system(4, 2, seed=5)
    b = build_B(s)
    run = propagate_coefficients(s, 0.08268, 100)
    qs = reduced_density_series(run, b)
    traces = np.trace(qs, axis1=1, axis2=2)
    assert np.max(np.abs(traces - 2.0)) < 1e-10
    assert np.max(np.abs(qs - qs.conj().transpose(0, 2, 1))) < 1e-12


def test_eigenvalue_drift_zero_for_stationary_state():
    s = _quiet_system()
    b = build_B(s)
    a0 = np.zeros(4, dtype=complex)
    a0[0] = 1.0
    run = propagate_coefficients(s, 0.05, 100, a0=a0)
    qs = reduced_density_series(run, b)
    assert np.max(eigenvalue_drift(qs)) < 1e-10


def test_eigenvalue_drift_matches_orbital_lvn_for_one_electron():
    # for a separable system the 1RDM obeys a K x K Liouville-von Neumann
    # equation; its eigenvalues are invariant, so the drift stays zero
    local = np.random.default_rng(6)
    h = local.standard_normal((2, 2))
    h = h + h.T
    mu = local.standard_normal((2, 2))
    mu = mu + mu.T
    oe = build_one_electron_system(h, mu, c="identity",
                                   field=FieldProfile(amplitude=0.5, omega=0.9))
    b = build_B(oe.system)
    dt = 0.008268
    run = propagate_coefficients(oe.system, dt, 400)
    qs = reduced_density_series(run, b)
    q_lvn = qs[0].copy()
    drift_lvn = []
    for j in range(400):
        e = matexp_hermitian(oe.orbital_hamiltonian(j * dt), -1j * dt)
        q_lvn = e @ q_lvn @ e.conj().T
        drift_lvn.append(np.abs(np.sort(np.linalg.eigvalsh(q_lvn))[::-1]
                                - np.sort(np.linalg.eigvalsh(qs[0]))[::-1]))
    assert np.max(eigenvalue_drift(qs)) < 1e-9
    assert np.max(drift_lvn) < 1e-9


def test_eigenvalue_drift_nonzero_for_driven_two_electron_system():
    # generic driven dynamics: no K x K Hamiltonian reproduces Q(t)
    s = generate_synthetic_system(4, 2, seed=7)
    b = build_B(s)
    run = propagate_coefficients(s, 0.08268, 2000)
    qs = reduced_density_series(run, b)
    assert np.max(eigenvalue_drift(qs)) > 1e-3


def test_eigenvalue_drift_matches_per_step_loop():
    # reference: the per-matrix loop the batched eigvalsh replaced; both call
    # the same LAPACK routine on each matrix, so the drifts are bitwise equal
    s = generate_synthetic_system(4, 2, seed=7)
    qs = reduced_density_series(propagate_coefficients(s, 0.08268, 300), build_B(s))
    lam = [np.linalg.eigvalsh(q)[::-1] for q in qs]
    expect = np.asarray([np.abs(v - lam[0]) for v in lam])
    assert np.array_equal(eigenvalue_drift(qs), expect)


def test_eigenvalue_drift_rejects_bad_series():
    qs = np.stack([np.eye(2, dtype=complex)] * 3)
    qs[2, 0, 1] = 1e-6  # one non-Hermitian step among Hermitian ones
    with pytest.raises(ValidationError, match="Hermitian"):
        eigenvalue_drift(qs)
    for bad in (np.eye(2), np.zeros((3, 2, 3)), np.zeros((0, 2, 2))):
        with pytest.raises(ValidationError, match="shape"):
            eigenvalue_drift(bad)
