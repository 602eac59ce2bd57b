"""The names the benchmark in perfbench/ reaches stay in place.

perfbench/ has its own suite (`python -m pytest perfbench`); these checks
keep a rename or deletion in src/ from breaking the benchmark unnoticed.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

from rdmdelay.ground_truth import UNITARY_CHUNK

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_resolves():
    # tracing.installed reads each attribute from the owner's own namespace
    for owner, attr, span, _ in tracing.WRAPPED:
        assert attr in vars(owner), f"{owner.__name__}.{attr} (span {span})"


def test_traced_workloads_run_and_restore_originals():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.WRAPPED]
    delay = replace(workloads.WORKLOADS["nc4-ell20"], n_steps=120)
    mz = workloads.WORKLOADS["mz-dense"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        episodes = [delay.solve(delay.default_seed), mz.solve(mz.default_seed)]
    for episode in episodes:
        assert episode.attempted > 0 and episode.failed == 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    totals = tracer.totals()
    assert totals["constraint_prop.step"]["calls"] == 120 - delay.depth
    # the run's 85 distinct field values are computed in stacked chunks; the
    # warm start and every delay step hit the cache
    chunks = math.ceil(85 / UNITARY_CHUNK)
    assert totals["numkit.matexp_hermitian"]["calls"] == chunks
    assert totals["ci_model.hamiltonian"]["calls"] == chunks
    assert totals["delay_core.propagate_y"]["calls"] == mz.steps - mz.cfg.depth
