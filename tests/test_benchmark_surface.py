"""The names the benchmark in perfbench/ reaches stay in place.

perfbench/ has its own suite (`python -m pytest perfbench`); these checks
keep a rename or deletion in src/ from breaking the benchmark unnoticed.
"""

import math
import sys
from collections import Counter
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
    # the field is off from step 85 on, so from step 85 + ell every block of
    # M comes from the one field-free unitary: steps 106..119 reuse step
    # 105's solve instead of calling solve_constrained
    n_delay = 120 - delay.depth
    assert n_delay == 100 and delay.depth == 20
    assert totals["constraint_prop.solve_constrained"]["calls"] == n_delay - 14
    assert totals["constraint_prop.assemble_constrained_system"]["calls"] == n_delay - 14
    # ConstraintSpec.reconstruct and HermitianBasis.matrix share one span name:
    # two spans per delay step, reused or not
    assert totals["constraint_prop.reconstruct"]["calls"] == 2 * n_delay
    assert totals["delay_core.propagate_y"]["calls"] == mz.steps - mz.cfg.depth
    # every window of propagate_y's M holds the one dense unitary, so M and
    # its pseudoinverse are formed once and serve every step (the nc4-ell20
    # run calls no pseudoinverse)
    assert totals["delay_core.build_M"]["calls"] == 1
    assert totals["numkit.pinv_thresholded"]["calls"] == 1


def test_every_strided_step_assembles_and_solves_once():
    # nc16-ell32-k8 builds M a chunk at a time at stride 8; each step still
    # calls assemble_constrained_system (once per chunk) and solves the
    # whole (ell + 1) K^2 x (N_C^2 - 1) real system once, so that the traced
    # assembly and solve spans cover the strided step
    delay = replace(workloads.WORKLOADS["nc16-ell32-k8"], n_steps=256 + 3)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        episode = delay.solve(delay.default_seed)
    assert episode.attempted == 3 and episode.failed == 0
    steps = [i for i, (name, *_) in enumerate(tracer.spans) if name == "constraint_prop.step"]
    assert len(steps) == 3
    for i in steps:
        children = Counter(name for name, _, _, parent in tracer.spans if parent == i)
        assert children["constraint_prop.assemble_constrained_system"] >= 1
        assert children["constraint_prop.solve_constrained"] == 1
    assert tracer.gauges == {"constraint_prop.solve.rows": 2 * 33 * 16,
                             "constraint_prop.solve.cols": 255}
