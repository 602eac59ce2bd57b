"""Timed and traced runs of one workload.

A run is a closed loop with one client: it solves the workload again and
again, one solve after the other, until the next solve would no longer fit
in the run's seconds.  The untraced run gives the end-to-end metrics; the
traced run alternates untraced and traced solves and gives the per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time

from tracing import GAUGES, WRAPPED, Tracer, installed
from workloads import NUMERICS

LAYER_METRICS = frozenset(
    {f"{name}.{key}" for _, _, name, _ in WRAPPED for key in ("calls", "s", "self_s")}
    | set(GAUGES) | set(NUMERICS) | {"harness.trace_overhead"})


def _keep_going(walls: list[float], started: float, seconds: float) -> bool:
    """Start another solve only if one of typical length still fits."""
    if not walls:
        return True
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def _solve(w, seed: int):
    gc.collect()  # collect the previous solve's garbage outside the timed steps
    return w.solve(seed)


def _fastest_solve(solved: list) -> float:
    """A solve whose set-up, whose k-th step for every k, and whose remainder
    are each the fastest of that part over the run's solves.

    Every step of the horizon counts at its own fastest time, so a cost that
    grows with the step index, or that only some steps pay, shows here.
    """
    if not solved:
        return math.inf
    steps = sum(min(times) for times in zip(*(e.step_s for e in solved)))
    return (min(e.setup_s for e in solved) + steps
            + min(e.rest_s for e in solved))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(w, seed: int, seconds: float):
    """End-to-end metrics of an untraced run: (metrics, attempted, failed)."""
    started = time.perf_counter()
    rss_before = _rss_mb()  # the interpreter, numpy, scipy and rdmdelay
    # warm-up: first-call costs are not timed.  The process's peak memory
    # creeps up with the number of solves, which depends on the host's speed,
    # so memory is measured over this one solve.
    episodes = [_solve(w, seed)]
    rss_growth = _rss_mb() - rss_before
    walls = []
    while _keep_going(walls, started, seconds):
        t0 = time.perf_counter()
        episodes.append(_solve(w, seed))
        walls.append(time.perf_counter() - t0)
    solved = [e for e in episodes[1:] if e.step_s]
    metrics = {
        "step_ms.min": 1e3 * min((s for e in solved for s in e.step_s), default=math.inf),
        "setup_s": statistics.median(e.setup_s for e in solved) if solved else math.inf,
        "solve_s": _fastest_solve(solved),
        "peak_rss_mb": rss_growth,
    }
    return (metrics, sum(e.attempted for e in episodes),
            sum(e.failed for e in episodes))


def _layer_values(episode, tracer: Tracer) -> dict[str, float]:
    values = {f"{name}.{key}": v
              for name, row in tracer.totals().items() for key, v in row.items()}
    values.update(tracer.gauges)
    values.update(episode.numerics)
    return values


def measure_traced(w, seed: int, seconds: float):
    """Per-layer metrics, each the median over the traced solves of a run,
    with layers the workload does not reach at 0: (metrics, attempted, failed).
    """
    started = time.perf_counter()
    w.set_up(seed)
    plain, traced, walls = [], [], []
    while not plain or not traced or _keep_going(walls, started, seconds):
        t0 = time.perf_counter()
        if len(plain) <= len(traced):
            plain.append(_solve(w, seed))
        else:
            tracer = Tracer()
            with installed(tracer):
                traced.append((_solve(w, seed), tracer))
        walls.append(time.perf_counter() - t0)
    per_solve = [_layer_values(e, t) for e, t in traced]
    metrics = {name: statistics.median([v.get(name, 0.0) for v in per_solve])
               for name in LAYER_METRICS}
    metrics["harness.trace_overhead"] = (min(e.solve_s for e, _ in traced)
                                         / min(e.solve_s for e in plain))
    episodes = plain + [e for e, _ in traced]
    return (metrics, sum(e.attempted for e in episodes),
            sum(e.failed for e in episodes))
