"""The shared step unitaries against the direct exp(-i H(t) dt) they replace.

`ground_truth.step_unitaries` computes each step unitary once per system and
distinct (f(t), dt), the missing ones in stacked chunks.  The reference path
computes ``matexp_hermitian(system.hamiltonian(t), -1j * dt)`` afresh at
every call, as the ground truth and the delay propagator did before the
unitaries were shared; the results must agree bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay import constraint_prop, ground_truth
from rdmdelay.ci_model import FieldProfile, build_B
from rdmdelay.constraint_prop import run_delay_propagation
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import (
    UNITARY_CHUNK,
    propagate_coefficients,
    reduced_density_series,
    release_step_unitaries,
    step_unitaries,
    step_unitary,
)
from rdmdelay.harness import ExperimentConfig, generate_synthetic_system, run_sweep
from rdmdelay.numkit import ValidationError, matexp_hermitian

DT_COARSE = 0.08268
DT_FINE = 0.008268


def _direct(system, t, dt):
    return matexp_hermitian(system.hamiltonian(t), -1j * dt)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _initial_state(n_c, seed=11):
    rng = np.random.default_rng(seed)
    a0 = rng.standard_normal(n_c) + 1j * rng.standard_normal(n_c)
    return a0 / np.linalg.norm(a0)


def _one_cycle_nc4():
    # the field switches off after one period, at step 85 of dt = 0.08268
    return generate_synthetic_system(4, 2, seed=3, field=FieldProfile(0.5, 0.9, 1))


@pytest.mark.parametrize("system, dt, n_steps, cfg, mode", [
    (_one_cycle_nc4(), DT_COARSE, 140, DelayConfig(ell=20), "constrained"),
    (_one_cycle_nc4(), DT_COARSE, 140, DelayConfig(ell=20), "raw"),
    (generate_synthetic_system(16, 4, seed=5, h0_scale=10.0), DT_FINE, 40,
     DelayConfig(ell=8, stride=4, r_tol=1e-6), "constrained"),
], ids=["nc4-cutoff-constrained", "nc4-cutoff-raw", "nc16-stride4"])
def test_shared_unitaries_reproduce_direct_path_bitwise(monkeypatch, system, dt,
                                                        n_steps, cfg, mode):
    b = build_B(system)
    a0 = _initial_state(system.n_configs)
    run = propagate_coefficients(system, dt, n_steps, a0=a0)
    a, reference = a0.astype(complex), [a0.astype(complex)]
    for j in range(n_steps):
        a = _direct(system, j * dt, dt) @ a
        reference.append(a)
    assert _same_bits(run.coefficients, np.array(reference))

    q_true = reduced_density_series(run, b)
    shared = run_delay_propagation(system, b, dt, n_steps, cfg, q_true, mode=mode)
    monkeypatch.setattr(constraint_prop, "step_unitary", _direct)
    direct = run_delay_propagation(system, b, dt, n_steps, cfg, q_true, mode=mode)
    assert _same_bits(shared[0], direct[0])
    assert [r.csv_row() for r in shared[1]] == [r.csv_row() for r in direct[1]]


@pytest.fixture
def calls(monkeypatch):
    """The scale of every step unitary computed (not served from the cache),
    once per matrix of each stacked call."""
    seen = []

    def counting(h, scale):
        seen.extend([scale] * math.prod(np.shape(h)[:-2]))
        return matexp_hermitian(h, scale)

    monkeypatch.setattr(ground_truth, "matexp_hermitian", counting)
    return seen


@pytest.fixture
def stacks(monkeypatch):
    """The number of matrices in each `matexp_hermitian` call."""
    seen = []

    def counting(h, scale):
        seen.append(math.prod(np.shape(h)[:-2]))
        return matexp_hermitian(h, scale)

    monkeypatch.setattr(ground_truth, "matexp_hermitian", counting)
    return seen


def _chunks(n_missing):
    full, rest = divmod(n_missing, UNITARY_CHUNK)
    return [UNITARY_CHUNK] * full + ([rest] if rest else [])


def test_missing_unitaries_come_in_chunks(stacks):
    # 200 driven steps of the five-cycle field: 200 distinct f
    system = generate_synthetic_system(4, 2, seed=3)
    propagate_coefficients(system, DT_COARSE, 200)
    assert stacks == _chunks(200)
    # one-cycle field: 85 distinct f over 400 steps
    stacks.clear()
    propagate_coefficients(_one_cycle_nc4(), DT_COARSE, 400)
    assert stacks == _chunks(85)
    assert max(stacks) == UNITARY_CHUNK


def test_empty_or_cached_horizon_computes_nothing(stacks):
    system = _one_cycle_nc4()
    run = propagate_coefficients(system, DT_COARSE, 0)
    assert run.coefficients.shape == (1, 4) and step_unitaries(system, [], DT_COARSE) == []
    assert stacks == []
    first = propagate_coefficients(system, DT_COARSE, 120)
    assert stacks == _chunks(85)
    again = propagate_coefficients(system, DT_COARSE, 120)
    assert stacks == _chunks(85)
    assert _same_bits(first.coefficients, again.coefficients)
    times = [j * DT_COARSE for j in range(120)]
    assert all(u is step_unitary(system, t, DT_COARSE)
               for u, t in zip(step_unitaries(system, times, DT_COARSE), times))


def test_cached_unitaries_own_their_data_and_are_read_only():
    system = generate_synthetic_system(4, 2, seed=3)
    propagate_coefficients(system, DT_COARSE, 70)
    cached = list(system._step_unitaries[DT_COARSE].values())
    assert len(cached) == 70
    for u in cached:
        assert u.flags.owndata and u.base is None and not u.flags.writeable


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.1])
def test_invalid_step_never_reaches_the_cache(dt):
    system = _one_cycle_nc4()
    with pytest.raises(ValidationError, match="dt must be positive and finite"):
        step_unitaries(system, [0.0, 0.5], dt)
    with pytest.raises(ValidationError, match="dt must be positive and finite"):
        step_unitary(system, 0.5, dt)
    assert system._step_unitaries == {}


def test_unitaries_computed_once_per_field_value(calls):
    system = _one_cycle_nc4()
    b = build_B(system)
    n_steps, cfg = 400, DelayConfig(ell=20)
    q_true = reduced_density_series(propagate_coefficients(system, DT_COARSE, n_steps), b)
    assert len(calls) == 85  # steps 0..84 drive the field; 0 and >= 85 share f = 0
    run_delay_propagation(system, b, DT_COARSE, n_steps, cfg, q_true)
    assert len(calls) == 85  # warm start and all 380 delay steps hit


def test_release_drops_only_that_step(calls):
    system = _one_cycle_nc4()
    u1, u2 = step_unitary(system, 1.0, DT_COARSE), step_unitary(system, 1.0, DT_FINE)
    release_step_unitaries(system, DT_COARSE)
    assert step_unitary(system, 1.0, DT_FINE) is u2
    again = step_unitary(system, 1.0, DT_COARSE)
    assert again is not u1 and _same_bits(again, u1)
    assert calls == [-1j * DT_COARSE, -1j * DT_FINE, -1j * DT_COARSE]
    release_step_unitaries(system, 0.5)  # a step the system never used


def test_sweep_shares_unitaries_across_ell_and_releases_each_dt(calls):
    # 200 steps of the default five-cycle field are all driven: 200 distinct f
    system = generate_synthetic_system(4, 2, seed=3)
    base = ExperimentConfig(system=system, dt=DT_COARSE, n_steps=200, ell=4)
    run_sweep(base, "ell", [4, 8])
    assert len(calls) == 200  # the second ell reuses the first one's unitaries
    run_sweep(base, "dt", [DT_COARSE, DT_COARSE / 2])
    assert len(calls) == 200 + 400  # DT_COARSE still cached; half the step is new
    step_unitary(system, 0.0, DT_COARSE)
    step_unitary(system, 0.0, DT_COARSE / 2)
    assert len(calls) == 602  # the dt sweep released both steps


def test_zero_field_of_either_sign_gets_its_own_entry():
    # at t = 0 a negative amplitude gives f = -0.0; after the cutoff f = 0.0
    system = generate_synthetic_system(4, 2, seed=3, field=FieldProfile(-0.5, 0.9, 1))
    t_off = 2 * system.field.cutoff_time
    assert math.copysign(1.0, system.field(0.0)) == -1.0
    u0, u_off = step_unitary(system, 0.0, DT_COARSE), step_unitary(system, t_off, DT_COARSE)
    assert u0 is not u_off
    assert _same_bits(u0, _direct(system, 0.0, DT_COARSE))
    assert _same_bits(u_off, _direct(system, t_off, DT_COARSE))
    assert step_unitary(system, t_off + 1.0, DT_COARSE) is u_off


_BASE = generate_synthetic_system(4, 2, seed=3)
_fields = st.builds(FieldProfile,
                    amplitude=st.floats(-2.0, 2.0, allow_nan=False),
                    omega=st.floats(0.1, 3.0),
                    cycles=st.integers(1, 5))
_times = st.floats(0.0, 200.0, allow_nan=False)
_steps = st.floats(1e-4, 1.0, allow_nan=False)


@settings(max_examples=60)
@given(field=_fields, t=_times, dt=_steps)
def test_shared_unitary_is_the_direct_exponential(field, t, dt):
    system = dataclasses.replace(_BASE, field=field)
    u = step_unitary(system, t, dt)
    assert _same_bits(u, _direct(system, t, dt))
    assert step_unitary(system, t, dt) is u
    assert np.abs(u @ u.conj().T - np.eye(system.n_configs)).max() < 1e-13
    with pytest.raises(ValueError):
        u[0, 0] = 0.0


@settings(max_examples=60)
@given(field=_fields, t=_times, dt1=_steps, dt2=_steps)
def test_different_steps_never_share_an_entry(field, t, dt1, dt2):
    system = dataclasses.replace(_BASE, field=field)
    u1, u2 = step_unitary(system, t, dt1), step_unitary(system, t, dt2)
    if dt1 == dt2:
        assert u1 is u2
    else:
        assert u1 is not u2
        assert _same_bits(u2, _direct(system, t, dt2))
    assert _same_bits(u1, _direct(system, t, dt1))
