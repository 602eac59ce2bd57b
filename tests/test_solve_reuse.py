"""Reuse of the delay solve while the memory matrix is bitwise unchanged.

Past the field cutoff every step applies the same cached step unitary, so
the memory matrix M stops changing, and `DelayPropagator.step` applies the
factor it kept instead of assembling and factoring M again.  The references
never reuse: each step's solve is formed afresh from the propagator's stack
and history, and the whole run is repeated with a copy of every step
unitary, which the propagator cannot take for the previous step's.  Both
must agree with the reusing run bit for bit.
"""

import numpy as np
import pytest

from rdmdelay import constraint_prop
from rdmdelay.ci_model import FieldProfile, build_B
from rdmdelay.constraint_prop import (
    DelayPropagator,
    assemble_constrained_system,
    run_delay_propagation,
    solve_constrained,
)
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series, step_unitary
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import NumericalError, pinv_thresholded

DT_COARSE = 0.08268
DT_FINE = 0.008268

# (system, initial state, dt, n_steps, ell, r_tol)
CASES = {
    # criterion 5's system: the five-cycle field stops at step 423
    "crit5": (lambda: generate_synthetic_system(4, 2, seed=3), None, DT_COARSE, 520, 20,
              1e-12),
    # the zero field of test_zero_field_propagation_not_constant_but_exact: f(t)
    # is +0.0 or -0.0 with the sign of sin t, two cached unitaries that take
    # turns every half period
    "zero-field": (lambda: generate_synthetic_system(4, 2, seed=6, field=FieldProfile()),
                   np.full(4, 0.5, dtype=complex), DT_COARSE, 200, 12, 1e-12),
    # criterion 8's rank-deficient configuration (every step falls back to the
    # pseudoinverse) with a one-cycle field, which stops at step 845
    "crit8-one-cycle": (lambda: generate_synthetic_system(
        4, 2, seed=3, field=FieldProfile(0.5, 0.9, 1)), None, DT_FINE, 1000, 3, 1e-12),
}


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _counter(monkeypatch, name):
    """Calls of the constraint_prop global `name`, which the propagator uses."""
    calls = []
    original = getattr(constraint_prop, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(constraint_prop, name, counting)
    return calls


def _factorizations(monkeypatch):
    # both modes factor through this one global, the constrained one inside
    # solve_constrained
    return _counter(monkeypatch, "factor_least_squares")


def _fresh_solve(prop):
    """(P-hat, residual, rank, cond) of the next step, solved afresh from the
    propagator's stack and history by the module's own functions, in new
    arrays laid out as the propagator's (the memory order of the real
    system decides how BLAS rounds its products)."""
    m = prop._memory_matrix()
    q_hist = prop._stacked_history()
    if prop.mode == "constrained":
        a, rhs = assemble_constrained_system(m, prop.spec, q_hist, prop.k_orb,
                                             out=np.empty_like(prop._a))
        x, residual, rank, cond, _ = solve_constrained(a, rhs, prop.cfg.r_tol)
        p_hat = prop.basis.matrix(prop.spec.reconstruct(x, prop.basis))
    else:
        pinv, rank, cond = pinv_thresholded(m, prop.cfg.r_tol)
        vec_p = pinv @ q_hist
        residual = float(np.linalg.norm(m @ vec_p - q_hist))
        p_hat = vec_p.reshape((prop.n_c, prop.n_c), order="F")
    return p_hat, residual, rank, cond


def _case(name, stride):
    make, a0, dt, n_steps, ell, r_tol = CASES[name]
    system = make()
    b = build_B(system)
    cfg = DelayConfig(ell=ell, stride=stride, r_tol=r_tol)
    q_true = reduced_density_series(propagate_coefficients(system, dt, n_steps, a0=a0), b)
    return system, b, cfg, dt, n_steps, q_true


def _step_until_reuse(prop, n_max):
    """Step until the propagator keeps a solve for the next step."""
    for _ in range(n_max):
        prop.step()
        if prop._solved is not None:
            return
    raise AssertionError(f"no solve kept in {n_max} steps")


def _copied_unitaries(monkeypatch):
    """Hand the propagator a fresh copy of every step unitary: equal values,
    never the previous step's array, so at ell >= 1 it never reuses a solve."""
    monkeypatch.setattr(constraint_prop, "step_unitary",
                        lambda system, t, dt: step_unitary(system, t, dt).copy())


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", ["constrained", "raw"])
@pytest.mark.parametrize("case", list(CASES))
def test_reused_steps_equal_a_fresh_solve(monkeypatch, case, mode, stride):
    system, b, cfg, dt, n_steps, q_true = _case(case, stride)
    with monkeypatch.context() as patch:
        factorizations = _factorizations(patch)
        prop = DelayPropagator(system, b, cfg, dt, mode=mode)
        prop.warm_start(q_true[:cfg.depth + 1])
        q, reused, fallbacks = [], 0, 0
        for _ in range(n_steps - cfg.depth):
            p_ref, *diagnostics = _fresh_solve(prop)
            kept, before = prop._solved, len(factorizations)
            q.append(prop.step())
            rec = prop.records[-1]
            assert (len(factorizations) == before) == (kept is not None)
            assert _same_bits(prop.last_p_hat, p_ref), rec.step
            assert [rec.residual, rec.effective_rank, rec.condition_number] == diagnostics
            if kept is not None:
                reused += 1
                fallbacks += kept.pinv is not None
    assert reused > 0
    if case == "crit8-one-cycle":
        # every reused solve is a kept pseudoinverse, in both modes
        assert fallbacks == reused
    with monkeypatch.context() as patch:
        _copied_unitaries(patch)
        factorizations = _factorizations(patch)
        q_ref, records_ref = run_delay_propagation(system, b, dt, n_steps, cfg, q_true,
                                                   mode=mode)
        assert len(factorizations) == n_steps - cfg.depth
    assert _same_bits(q, q_ref[cfg.depth + 1:])
    assert prop.records == records_ref


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_kept_solve_is_dropped_when_the_unitary_changes(monkeypatch, mode, stride):
    # criterion 5's system, driven throughout 200 steps but for a quiet
    # stretch of steps that apply the field-free unitary: the solve kept in
    # that stretch must be dropped when the field returns
    system, b, cfg, dt, _, q_true = _case("crit5", stride)
    n_steps, quiet = 200, range(60, 140)

    def unitaries(copy):
        def unitary(system, t, dt):
            e = step_unitary(system, 0.0 if round(t / dt) in quiet else t, dt)
            return e.copy() if copy else e
        return unitary

    runs = []
    for copy in (False, True):
        with monkeypatch.context() as patch:
            patch.setattr(constraint_prop, "step_unitary", unitaries(copy))
            factorizations = _factorizations(patch)
            q, records = run_delay_propagation(system, b, dt, n_steps, cfg, q_true, mode=mode)
            runs.append((q, records, len(factorizations)))
    (q, records, n_factored), (q_ref, records_ref, n_ref) = runs
    assert n_ref == n_steps - cfg.depth
    # M(t) is built from the field-free unitary alone from step 60 + depth
    # on, and that step's solve serves steps 61 + depth .. 140
    assert n_factored == n_ref - (len(quiet) - cfg.depth)
    assert _same_bits(q, q_ref)
    assert records == records_ref


@pytest.mark.parametrize("stride", [1, 8])
def test_driven_steps_factor_every_step(monkeypatch, stride):
    # criterion 7's system and initial state: the field is on at every step
    system = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    b = build_B(system)
    local = np.random.default_rng(11)
    a0 = local.standard_normal(16) + 1j * local.standard_normal(16)
    a0 /= np.linalg.norm(a0)
    cfg, n_delay = DelayConfig(ell=32, stride=stride, r_tol=1e-6), 4
    q_true = reduced_density_series(
        propagate_coefficients(system, DT_FINE, cfg.depth, a0=a0), b)
    solves = _counter(monkeypatch, "solve_constrained")
    prop = DelayPropagator(system, b, cfg, DT_FINE)
    prop.warm_start(q_true[:cfg.depth + 1])
    for _ in range(n_delay):
        prop.step()
    assert len(solves) == n_delay
    assert prop._solved is None


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_driven_run_at_ell_0_factors_once(monkeypatch, mode):
    # at ell 0 M is the rows of B~ alone, whatever the field does: criterion
    # 5's system, driven on all 300 steps, factors on the first step only,
    # and matches a run that factors afresh on every step bit for bit
    system, b, _, dt, _, q_true = _case("crit5", 1)
    cfg, n_steps = DelayConfig(ell=0, r_tol=1e-12), 300
    runs = []
    for fresh in (False, True):
        with monkeypatch.context() as patch:
            factorizations = _factorizations(patch)
            prop = DelayPropagator(system, b, cfg, dt, mode=mode)
            prop.warm_start(q_true[:1])
            q = []
            for _ in range(n_steps):
                if fresh:
                    prop._solved = None
                q.append(prop.step())
            runs.append((q, prop.records, len(factorizations)))
    (q, records, n_factored), (q_ref, records_ref, n_ref) = runs
    assert (n_factored, n_ref) == (1, n_steps)
    assert _same_bits(q, q_ref)
    assert records == records_ref


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_second_warm_start_drops_the_kept_solve(mode, stride):
    system, b, cfg, dt, n_steps, q_true = _case("crit5", stride)
    reused = DelayPropagator(system, b, cfg, dt, mode=mode)
    reused.warm_start(q_true[:cfg.depth + 1])
    _step_until_reuse(reused, n_steps - cfg.depth)
    n_before = len(reused.records)
    start = 100  # a driven window, where the kept solve would be wrong
    window = q_true[start:start + cfg.depth + 1]
    reused.warm_start(window, start_step=start)
    fresh = DelayPropagator(system, b, cfg, dt, mode=mode)
    fresh.warm_start(window, start_step=start)
    q_reused = [reused.step() for _ in range(10)]
    q_fresh = [fresh.step() for _ in range(10)]
    assert _same_bits(q_reused, q_fresh)
    assert reused.records[n_before:] == fresh.records


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_non_finite_history_in_a_reused_stretch_raises(monkeypatch, mode, stride):
    system, b, cfg, dt, n_steps, q_true = _case("crit5", stride)
    factorizations = _factorizations(monkeypatch)
    prop = DelayPropagator(system, b, cfg, dt, mode=mode)
    prop.warm_start(q_true[:cfg.depth + 1])
    _step_until_reuse(prop, n_steps - cfg.depth)
    prop.step()
    n_records, n_factorizations = len(prop.records), len(factorizations)
    prop._q_hist[0, 1] = np.nan  # the newest Q
    with pytest.raises(NumericalError,
                       match=rf"step {prop._step_index + 1} .*{mode} solve stage"):
        prop.step()
    assert len(prop.records) == n_records
    assert len(factorizations) == n_factorizations  # the failing step reused the solve
