"""The benchmark's timed pipeline computes what harness.run_experiment computes.

Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rdmdelay import harness  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, failed_steps  # noqa: E402

# one short configuration per N_C, with every other setting of the workload
SHORT = (
    replace(WORKLOADS["nc4-ell20"], n_steps=120),
    replace(WORKLOADS["nc16-ell32-k8"], n_steps=256 + 6),
)


def _run_experiment(w, seed):
    system = w.system()
    b = harness.build_B(system)
    run = harness.propagate_coefficients(system, w.dt, w.n_steps,
                                         a0=w.initial_state(seed))
    q_true = harness.reduced_density_series(run, b)
    cfg = harness.ExperimentConfig(system=system, dt=w.dt, n_steps=w.n_steps,
                                   ell=w.ell, stride=w.stride, r_tol=w.r_tol)
    return harness.run_experiment(cfg, b=b, q_true=q_true)


@pytest.mark.parametrize("w", SHORT, ids=lambda w: f"nc{w.n_c}")
def test_pipeline_reproduces_run_experiment(w):
    seed = w.default_seed
    episode = w.solve(seed)
    report = _run_experiment(w, seed)
    assert episode.failed == 0
    assert episode.attempted == w.n_steps - w.depth == len(episode.step_s)
    assert episode.numerics["constraint_prop.min_rank"] == report.summary()["min_rank"]
    assert episode.numerics["harness.rmse"] == pytest.approx(report.rmse, rel=1e-9)


def test_traced_solve_matches_untraced_and_restores_originals():
    w = SHORT[0]
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = w.solve(w.default_seed)
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.WRAPPED] == before
    assert traced.numerics == w.solve(w.default_seed).numerics

    totals = tracer.totals()
    n_delay = w.n_steps - w.depth
    assert totals["constraint_prop.step"]["calls"] == n_delay
    # one step unitary per ground-truth step, per warm-start step, per delay step
    assert totals["numkit.matexp_hermitian"]["calls"] == 2 * w.n_steps
    assert totals["ci_model.hamiltonian"]["calls"] == 2 * w.n_steps
    assert totals["numkit.pinv_thresholded"]["calls"] == n_delay
    assert tracer.gauges == {"constraint_prop.solve.rows": 2 * (w.ell + 1) * 4,
                             "constraint_prop.solve.cols": 15}
    step = totals["constraint_prop.step"]
    assert 0 < step["self_s"] < step["s"]


def test_gate_flags_nonfinite_and_trace_error():
    q = np.tile(np.diag([1.5, 0.5]).astype(complex), (4, 1, 1))
    q[1, 0, 1] = np.nan
    q[2, 0, 0] += 1e-7
    assert failed_steps(q).tolist() == [False, True, True, False]


def test_mz_pipeline_reproduces_mz_compare():
    w = replace(WORKLOADS["mz-dense"], steps=40)
    episode = w.solve(w.default_seed)
    assert episode.failed == 0 and episode.attempted == 1
    assert len(episode.step_s) == 40 - w.cfg.depth
    reference = harness.mz_compare(w.dim, w.m_reduced, 40, seed=w.default_seed,
                                   diagonal=False)
    for key in ("mz_max_error", "delay_max_error"):
        assert episode.numerics[f"harness.mz_compare.{key}"] == reference[key]


def test_fastest_solve_takes_every_step_at_its_own_fastest():
    from measure import _fastest_solve
    from workloads import Episode

    a = Episode(1.0, [1.0, 5.0, 2.0], 0.5, 3, 0)
    b = Episode(2.0, [3.0, 4.0, 1.0], 0.1, 3, 0)
    assert _fastest_solve([a, b]) == pytest.approx(1.0 + (1.0 + 4.0 + 1.0) + 0.1)
