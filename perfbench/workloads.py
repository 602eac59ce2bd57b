"""Workloads of the rdmdelay benchmark and the pipeline each one times.

A delay workload makes the calls ``harness.run_experiment`` makes, in the
same order, but times them from outside the package:

    generate_synthetic_system, build_B            (set-up)
    propagate_coefficients, reduced_density_series (set-up: ground truth)
    DelayPropagator(...), warm_start               (set-up)
    DelayPropagator.step() in a loop               (each step timed)
    rmse                                           (end of the solve)

Functions are looked up as module attributes at call time (``harness.build_B``,
the name ``run_experiment`` itself looks up), so that the traced run's
wrappers see these calls too.

The system of each delay workload is the acceptance criterion's system; the
seed draws the initial CI state.  The memory matrix M(t) depends on the
system only, so the solve's rank and conditioning, and with them the
accuracy, are those of the acceptance configuration for every seed.  Other
system seeds are not used because some of them miss the acceptance bounds
(see NOTE.md).
"""

from __future__ import annotations

import math
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field

import numpy as np

from rdmdelay import constraint_prop, harness
from rdmdelay.delay_core import DelayConfig, complete_reduction_basis

N_ELECTRONS = 2        # every workload is a two-electron system: tr Q = 2
RMSE_BOUND = 1e-6      # acceptance criterion 5
TRACE_BOUND = 1e-8     # acceptance criterion 3, on every step
MZ_ERROR_BOUND = 1e-8  # acceptance criterion 10, both schemes


@dataclass
class Episode:
    """One complete solve: set-up, every step of the horizon, the rest."""

    setup_s: float         # everything before the first timed step
    step_s: list[float]    # per-step wall times; empty if the solve raised
    rest_s: float          # the rest, not split by step: final checks, MZ sum
    attempted: int
    failed: int
    numerics: dict = field(default_factory=dict)

    @property
    def solve_s(self) -> float:
        return self.setup_s + sum(self.step_s) + self.rest_s


def _failed_episode(attempted: int) -> Episode:
    """A solve that raised: never the fastest, and every operation failed."""
    traceback.print_exc(file=sys.stderr)
    return Episode(math.inf, [], math.inf, attempted, attempted)


def failed_steps(q_steps: np.ndarray) -> np.ndarray:
    """Mask of emitted Q(t) that are non-finite or miss |tr Q - N| < TRACE_BOUND."""
    finite = np.isfinite(q_steps).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        trace_dev = np.abs(np.trace(q_steps, axis1=1, axis2=2).real - N_ELECTRONS)
    return ~(finite & (trace_dev < TRACE_BOUND))


@dataclass(frozen=True)
class DelayWorkload:
    """Constrained delay propagation of one synthetic TDCI system."""

    name: str
    n_c: int
    k_orbitals: int
    system_seed: int
    dt: float
    n_steps: int
    ell: int
    stride: int = 1
    r_tol: float = 1e-12
    h0_scale: float = 2.0
    field_cycles: int = 5   # periods of the driving field before its cutoff
    default_seed: int = 11  # criterion 7 draws its initial state from seed 11

    @property
    def depth(self) -> int:
        return self.ell * self.stride

    def initial_state(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        a0 = rng.standard_normal(self.n_c) + 1j * rng.standard_normal(self.n_c)
        return a0 / np.linalg.norm(a0)

    def system(self):
        # generate_synthetic_system's default field, FieldProfile(0.5, 0.9, 5),
        # with the workload's cycle count
        return harness.generate_synthetic_system(
            self.n_c, self.k_orbitals, seed=self.system_seed, h0_scale=self.h0_scale,
            field=harness.FieldProfile(0.5, 0.9, self.field_cycles))

    def set_up(self, seed: int):
        """Everything before the first delay step; returns (q_true, propagator)."""
        system = self.system()
        b = harness.build_B(system)
        run = harness.propagate_coefficients(system, self.dt, self.n_steps,
                                             a0=self.initial_state(seed))
        q_true = harness.reduced_density_series(run, b)
        cfg = DelayConfig(ell=self.ell, stride=self.stride, r_tol=self.r_tol)
        spec = constraint_prop.ConstraintSpec(system.n_configs, 1.0, frozenset())
        prop = constraint_prop.DelayPropagator(system, b, cfg, self.dt,
                                               mode="constrained", spec=spec)
        prop.warm_start([np.asarray(q_true[j]) for j in range(cfg.depth + 1)])
        return q_true, prop

    def solve(self, seed: int) -> Episode:
        n = self.n_steps - self.depth
        try:
            t0 = time.perf_counter()
            q_true, prop = self.set_up(seed)
            t1 = time.perf_counter()
            series = [np.asarray(q_true[j], dtype=complex) for j in range(self.depth + 1)]
            step_s = []
            for _ in range(n):
                a = time.perf_counter()
                q = prop.step()
                step_s.append(time.perf_counter() - a)
                series.append(q)
            t2 = time.perf_counter()
            series = np.asarray(series)
            err = harness.rmse(series, q_true, self.depth)
            t3 = time.perf_counter()
        except Exception:  # a raising solve fails every step it was to make
            return _failed_episode(n)
        failed = int(failed_steps(series[self.depth + 1:]).sum())
        if not err < RMSE_BOUND:
            failed = n
        records = prop.records
        n_free = len(prop.spec.kept_coords(prop.basis))
        numerics = {
            "constraint_prop.rank_deficient_steps":
                sum(r.effective_rank < n_free for r in records),
            "constraint_prop.neg_eig_steps": sum(r.min_eig_p < 0 for r in records),
            "constraint_prop.min_rank": min(r.effective_rank for r in records),
            "constraint_prop.max_cond": max(r.condition_number for r in records),
            "constraint_prop.max_residual": max(r.residual for r in records),
            "harness.rmse": err,
        }
        return Episode(t1 - t0, step_s, t3 - t2, n, failed, numerics)


@dataclass(frozen=True)
class MzWorkload:
    """``harness.mz_compare`` on a dense unitary: Mori-Zwanzig and delay.

    The solve makes the calls ``mz_compare(dim, m_reduced, steps, seed,
    diagonal=False)`` makes, on the same random draws, but fills the delay
    history before the Mori-Zwanzig sum instead of after it, so that set-up
    is everything before the first timed step and each delay step (one
    ``propagate_y``) is timed on its own.
    """

    name: str
    dim: int
    m_reduced: int
    steps: int
    default_seed: int = 0  # criterion 10's seed

    @property
    def cfg(self) -> DelayConfig:
        # mz_compare's delay window: ell = max(dim // m - 1, 1) at stride 1
        return DelayConfig(ell=max(self.dim // self.m_reduced - 1, 1), stride=1)

    def set_up(self, seed: int):
        """The unitary, the reduction and its completion, the direct
        trajectory and the delay history; returns everything the solve needs.
        """
        rng = np.random.default_rng(seed)
        a = harness.random_unitary(self.dim, rng)
        r = harness.ReductionMap(np.eye(self.dim)[:self.m_reduced].astype(complex))
        z0 = rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)
        z0 /= np.linalg.norm(z0)
        zs = [z0]
        for _ in range(self.steps):
            zs.append(a @ zs[-1])
        direct = np.asarray([r.matrix @ z for z in zs])
        rtilde = complete_reduction_basis(r)
        hist = harness.HistoryBuffer(depth=self.cfg.depth)
        for j in range(self.cfg.depth + 1):
            hist.push(a if j > 0 else None, direct[j])
        return a, r, z0, direct, rtilde, hist

    def solve(self, seed: int) -> Episode:
        cfg = self.cfg
        try:
            t0 = time.perf_counter()
            a, r, z0, direct, rtilde, hist = self.set_up(seed)
            t1 = time.perf_counter()
            mz_traj, _ = harness.mori_zwanzig_propagate(
                a, r, direct[0], rtilde @ z0, self.steps, rtilde=rtilde)
            delay_traj = list(direct[:cfg.depth + 1])
            step_s = []
            with warnings.catch_warnings():
                # propagate_y warns on every rank-deficient step of the dense case
                warnings.simplefilter("ignore", RuntimeWarning)
                t2 = time.perf_counter()
                for _ in range(cfg.depth, self.steps):
                    s0 = time.perf_counter()
                    y_next, _ = harness.propagate_y(hist, r, a, cfg)
                    hist.push(a, y_next)
                    step_s.append(time.perf_counter() - s0)
                    delay_traj.append(y_next)
                t3 = time.perf_counter()
            mz_err = float(max(np.linalg.norm(y - d) for y, d in zip(mz_traj, direct)))
            delay_err = float(max(np.linalg.norm(y - d)
                                  for y, d in zip(delay_traj, direct)))
            t4 = time.perf_counter()
        except Exception:
            return _failed_episode(1)
        failed = int(not (mz_err < MZ_ERROR_BOUND and delay_err < MZ_ERROR_BOUND))
        numerics = {"harness.mz_compare.mz_max_error": mz_err,
                    "harness.mz_compare.delay_max_error": delay_err}
        # the run counts one operation per solve: the comparison passes or not
        return Episode(t1 - t0, step_s, (t2 - t1) + (t4 - t3), 1, failed, numerics)


DT_COARSE = 0.08268
DT_FINE = 0.008268

# Why each workload is here: perfbench/NOTE.md.
WORKLOADS = {w.name: w for w in (
    # criterion 5's system, dt and ell with the field cut off after one cycle
    # (step 85) instead of five (step 423), so that 79% of the steps still
    # fall after the cutoff in a 400-step horizon; fixed per-step cost and
    # ground truth dominate
    DelayWorkload("nc4-ell20", 4, 2, system_seed=3, dt=DT_COARSE, n_steps=400, ell=20,
                  field_cycles=1),
    # criteria 5/6 at the fine step and the longest window: ell np.kron blocks
    # of memory assembly dominate; 40 delay steps, all before the cutoff
    DelayWorkload("nc4-ell160", 4, 2, system_seed=3, dt=DT_FINE, n_steps=160 + 40,
                  ell=160),
    # criterion 7 at stride 8: the 1056 x 255 real solve dominates; 8 delay
    # steps after the 256-deep warm start
    DelayWorkload("nc16-ell32-k8", 16, 4, system_seed=5, dt=DT_FINE, n_steps=256 + 8,
                  ell=32, stride=8, r_tol=1e-6, h0_scale=10.0),
    # criterion 10's dense case at N = 16: the only workload reaching delay_core
    MzWorkload("mz-dense", 16, 4, steps=200),
)}


# Numerical outcomes each solve reports; a change in one flags a numerics change.
NUMERICS = (
    "constraint_prop.rank_deficient_steps", "constraint_prop.neg_eig_steps",
    "constraint_prop.min_rank", "constraint_prop.max_cond",
    "constraint_prop.max_residual", "harness.rmse",
    "harness.mz_compare.mz_max_error", "harness.mz_compare.delay_max_error",
)
