"""In-memory spans around calls into rdmdelay, for the traced benchmark run.

Each wrapper is installed at the name its caller looks up (for example
``rdmdelay.constraint_prop.matexp_hermitian``, the global that
``DelayPropagator.step`` reads), never at the defining module alone, so that
every call the program makes passes through it.  Wrappers exist only inside
``installed(tracer)``; the untimed and untraced runs call the original
functions.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from rdmdelay import ci_model, constraint_prop, delay_core, ground_truth, harness


GAUGES = ("constraint_prop.solve.rows", "constraint_prop.solve.cols")


def _solve_shape(m_red, b_ell, r_tol):
    # solve_constrained stacks real and imaginary parts: 2 * rows real rows
    return dict(zip(GAUGES, (2 * m_red.shape[0], m_red.shape[1])))


# (owner, attribute the caller looks up, span name, optional gauge hook)
WRAPPED = (
    (harness, "generate_synthetic_system", "harness.generate_synthetic_system", None),
    (harness, "build_B", "ci_model.build_B", None),
    (harness, "propagate_coefficients", "ground_truth.propagate_coefficients", None),
    (harness, "reduced_density_series", "ground_truth.reduced_density_series", None),
    (harness, "rmse", "harness.rmse", None),
    (harness, "propagate_y", "delay_core.propagate_y", None),
    (harness, "mori_zwanzig_propagate", "delay_core.mori_zwanzig_propagate", None),
    (delay_core, "build_M", "delay_core.build_M", None),
    (delay_core, "pinv_thresholded", "numkit.pinv_thresholded", None),
    (ground_truth, "matexp_hermitian", "numkit.matexp_hermitian", None),
    (constraint_prop, "matexp_hermitian", "numkit.matexp_hermitian", None),
    (constraint_prop, "pinv_thresholded", "numkit.pinv_thresholded", None),
    (constraint_prop, "assemble_constrained_system",
     "constraint_prop.assemble_constrained_system", None),
    (constraint_prop, "solve_constrained", "constraint_prop.solve_constrained",
     _solve_shape),
    (constraint_prop.DelayPropagator, "warm_start", "constraint_prop.warm_start", None),
    (constraint_prop.DelayPropagator, "step", "constraint_prop.step", None),
    # ConstraintSpec.reconstruct and HermitianBasis.matrix together turn the
    # reduced solution back into P-hat, so they share one span name
    (constraint_prop.ConstraintSpec, "reconstruct", "constraint_prop.reconstruct", None),
    (constraint_prop.HermitianBasis, "matrix", "constraint_prop.reconstruct", None),
    (ci_model.CiSystem, "hamiltonian", "ci_model.hamiltonian", None),
)


class Tracer:
    """Spans (name, start, end, parent index) and gauges, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.gauges: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, gauge=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if gauge is not None:
                for key, value in gauge(*args, **kwargs).items():
                    self.gauges[key] = max(self.gauges.get(key, value), value)
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          open_spans[-1] if open_spans else -1])
            open_spans.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, since the program
        is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - inner
        return out


@contextmanager
def installed(tracer: Tracer):
    """Route every call in WRAPPED through `tracer`; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, gauge in WRAPPED:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, gauge))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
