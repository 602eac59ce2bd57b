"""Experiment orchestration: metrics, sweeps, validation suites, file output.

Drives the ground-truth engine and the delay propagator over parameter
sweeps (memory depth, stride, time step), computes RMSE/MAE/residual
metrics, runs the one-electron exactness suite, and emits CSV/JSON
artifacts for external plotting.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ci_model import (
    BTensor,
    CiSystem,
    DeterminantIndexMap,
    FieldProfile,
    build_B,
    build_one_electron_system,
    one_electron_index_map,
    verify_bplus_identities,
)
from .constraint_prop import ConstraintSpec, run_delay_propagation
from .delay_core import (
    DelayConfig,
    HistoryBuffer,
    ReductionMap,
    complete_reduction_basis,
    mori_zwanzig_propagate,
    propagate_y,
)
from .ground_truth import (
    eigenvalue_drift,
    propagate_coefficients,
    reduced_density_series,
    release_step_unitaries,
    require_step_count,
)
from .numkit import (
    ValidationError,
    matexp_hermitian,
    random_hermitian,
    random_unitary,
)


# ---------------------------------------------------------------------------
# metrics


def rmse(model, truth, ell: int) -> float:
    """sqrt( (1/K^2) (1/(n_steps - ell)) sum_{j=ell+1}^{n_steps} ||dQ(j)||_F^2 )."""
    model = np.asarray(model)
    truth = np.asarray(truth)
    if model.shape != truth.shape:
        raise ValidationError(f"series shapes differ: {model.shape} vs {truth.shape}")
    n_steps = model.shape[0] - 1
    if n_steps < ell + 1:
        raise ValidationError(f"series too short ({n_steps} steps) for ell = {ell}")
    k2 = model.shape[1] * model.shape[2]
    diff = model[ell + 1:] - truth[ell + 1:]
    return float(np.sqrt(np.sum(np.abs(diff) ** 2) / (k2 * (n_steps - ell))))


def mae(model, truth) -> float:
    """(1/K^2) sum_{i,j} |dQ_{ij}| for a single pair of matrices."""
    model = np.asarray(model)
    truth = np.asarray(truth)
    if model.shape != truth.shape:
        raise ValidationError(f"shapes differ: {model.shape} vs {truth.shape}")
    return float(np.sum(np.abs(model - truth)) / model.size)


def mae_series(model, truth) -> np.ndarray:
    model = np.asarray(model)
    truth = np.asarray(truth)
    if model.shape != truth.shape:
        raise ValidationError(f"series shapes differ: {model.shape} vs {truth.shape}")
    k2 = model.shape[1] * model.shape[2]
    return np.sum(np.abs(model - truth), axis=(1, 2)) / k2


# ---------------------------------------------------------------------------
# configuration and reports


@dataclass
class ExperimentConfig:
    system: CiSystem
    dt: float = 0.08268
    n_steps: int = 2000
    ell: int = 8
    stride: int = 1
    r_tol: float = 1e-12
    mode: str = "constrained"
    zero_pairs: frozenset = frozenset()
    out_dir: Path | None = None
    label: str = "run"

    def delay_config(self) -> DelayConfig:
        return DelayConfig(ell=self.ell, stride=self.stride, r_tol=self.r_tol)


@dataclass
class MetricsReport:
    rmse: float
    max_mae: float
    mae_series: np.ndarray
    residual_series: np.ndarray
    rank_series: np.ndarray
    condition_series: np.ndarray
    eigen_drift_max: float
    total_memory: float
    wall_seconds: float
    n_steps: int

    def summary(self) -> dict:
        return {
            "rmse": self.rmse,
            "max_mae": self.max_mae,
            "final_residual": float(self.residual_series[-1]) if len(self.residual_series) else 0.0,
            "min_rank": int(self.rank_series.min()) if len(self.rank_series) else 0,
            "max_cond": float(self.condition_series.max()) if len(self.condition_series) else 0.0,
            "eigen_drift_max": self.eigen_drift_max,
            "total_memory": self.total_memory,
            "n_steps": self.n_steps,
        }


def run_experiment(cfg: ExperimentConfig, b: BTensor | None = None,
                   q_true: np.ndarray | None = None) -> MetricsReport:
    """Ground truth, warm start, delay propagation, metrics, optional artifacts."""
    system = cfg.system
    if b is None:
        b = build_B(system)
    if q_true is None:
        run = propagate_coefficients(system, cfg.dt, cfg.n_steps)
        q_true = reduced_density_series(run, b)
    spec = ConstraintSpec(system.n_configs, 1.0, cfg.zero_pairs)
    t0 = time.perf_counter()
    q_model, records = run_delay_propagation(
        system, b, cfg.dt, cfg.n_steps, cfg.delay_config(), q_true,
        mode=cfg.mode, spec=spec)
    wall = time.perf_counter() - t0
    warm = cfg.ell * cfg.stride
    m_ser = mae_series(q_model, q_true)
    report = MetricsReport(
        rmse=rmse(q_model, q_true, warm),
        max_mae=float(m_ser[warm + 1:].max()),
        mae_series=m_ser,
        residual_series=np.array([r.residual for r in records]),
        rank_series=np.array([r.effective_rank for r in records]),
        condition_series=np.array([r.condition_number for r in records]),
        eigen_drift_max=float(eigenvalue_drift(q_true).max()),
        total_memory=cfg.ell * cfg.stride * cfg.dt,
        wall_seconds=wall,
        n_steps=cfg.n_steps,
    )
    if cfg.out_dir is not None:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{cfg.label}_steps.csv", "w") as fh:
            fh.write(records[0].CSV_HEADER + ",mae\n" if records else "")
            for r in records:
                fh.write(r.csv_row() + f",{m_ser[r.step]:.17g}\n")
        with open(out / f"{cfg.label}_summary.json", "w") as fh:
            json.dump(report.summary(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    return report


SWEEP_COLUMNS = ("ell", "k", "dt", "total_memory", "rmse", "max_mae",
                 "final_residual", "min_rank", "max_cond")


def _steps_at(total_time: float, dt: float) -> int:
    """Step count of a dt-sweep point: the base run's final time at step dt."""
    return int(round(total_time / dt))


def run_sweep(base: ExperimentConfig, axis: str, values) -> list[dict]:
    """Sweep one axis (ell, stride, or dt) and tabulate summary metrics.

    dt sweeps hold the final time n_steps * dt fixed.  dt values must be
    positive and finite, with a step count whose trajectory numpy can
    create, ell and stride values finite integers (2.0 is taken as 2, 2.5
    is rejected).  Every value is checked before the first point runs.
    """
    if axis not in ("ell", "stride", "dt"):
        raise ValidationError(f"sweep axis must be ell, stride, or dt, got {axis!r}")
    values = list(values)
    total_time = base.n_steps * base.dt
    if axis == "dt":
        if not all(0 < v < math.inf for v in values):
            raise ValidationError(f"dt values must be positive and finite, got {values}")
        for v in values:
            try:
                require_step_count(_steps_at(total_time, v), base.system.n_configs)
            except ValidationError as exc:
                raise ValidationError(f"dt = {v:g}: {exc}") from None
    elif all(math.isfinite(v) and v == int(v) for v in values):
        values = [int(v) for v in values]
    else:
        raise ValidationError(f"{axis} values must be finite integers, got {values}")
    b = build_B(base.system)
    rows = []
    cache: dict[float, np.ndarray] = {}
    for v in values:
        cfg = ExperimentConfig(**{**base.__dict__})
        if axis == "ell":
            cfg.ell = v
        elif axis == "stride":
            cfg.stride = v
        else:
            cfg.dt = float(v)
            cfg.n_steps = _steps_at(total_time, cfg.dt)
        cfg.label = f"{base.label}_{axis}{v}"
        if cfg.dt not in cache:
            run = propagate_coefficients(cfg.system, cfg.dt, cfg.n_steps)
            cache[cfg.dt] = reduced_density_series(run, b)
        rep = run_experiment(cfg, b=b, q_true=cache[cfg.dt])
        if axis == "dt":
            # each dt is one sweep point: its step unitaries are not needed again
            release_step_unitaries(cfg.system, cfg.dt)
        s = rep.summary()
        rows.append({
            "ell": cfg.ell, "k": cfg.stride, "dt": cfg.dt,
            "total_memory": s["total_memory"], "rmse": s["rmse"],
            "max_mae": s["max_mae"], "final_residual": s["final_residual"],
            "min_rank": s["min_rank"], "max_cond": s["max_cond"],
            "wall_seconds": rep.wall_seconds,
        })
    if base.out_dir is not None:
        out = Path(base.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{base.label}_sweep.csv", "w") as fh:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            for r in rows:
                fh.write(",".join(format(r[c], ".17g") if isinstance(r[c], float)
                                  else str(r[c]) for c in SWEEP_COLUMNS) + "\n")
    return rows


# ---------------------------------------------------------------------------
# synthetic systems


def generate_synthetic_system(n_c: int, k_orbitals: int, seed: int,
                              zero_diag_dipole: bool = False,
                              field: FieldProfile | None = None,
                              h0_scale: float = 2.0) -> CiSystem:
    """Reproducible stand-in for a molecular two-electron system.

    N_C = K^2 selects the mixed-spin determinant map of the separable model
    (the STO-3G / 6-31G determinant counts); N_C = C(2K, 2) selects all
    two-electron determinants.  H0 is a sorted random diagonal, M_dip a
    random Hermitian matrix (optionally zero-diagonal), C a random unitary.
    """
    rng = np.random.default_rng(seed)
    if n_c == k_orbitals ** 2:
        imap = one_electron_index_map(k_orbitals)
    elif n_c == math.comb(2 * k_orbitals, 2):
        combos = tuple(itertools.combinations(range(1, 2 * k_orbitals + 1), 2))
        imap = DeterminantIndexMap(2, 2 * k_orbitals, combos)
    else:
        raise ValidationError(
            f"n_c = {n_c} matches neither K^2 = {k_orbitals ** 2} nor "
            f"C(2K,2) = {math.comb(2 * k_orbitals, 2)}")
    h0 = np.sort(rng.standard_normal(n_c)) * h0_scale
    m_dip = random_hermitian(n_c, rng)
    if zero_diag_dipole:
        np.fill_diagonal(m_dip, 0.0)
    c = random_unitary(n_c, rng)
    return CiSystem(
        n_electrons=2, n_orbitals=k_orbitals, c_matrix=c, index_map=imap,
        h0_diag=h0, m_dip=m_dip,
        field=field if field is not None else FieldProfile(0.5, 0.9, 5))


# ---------------------------------------------------------------------------
# one-electron validation suite


def validate_one_electron(k_orbitals: int, dt: float = 0.008268,
                          n_steps: int = 1000, seed: int = 0) -> dict:
    """Exactness suite for the separable (one-electron Hamiltonian) model.

    Checks, for random Hermitian h and mu and for both C = I and a random
    unitary C: the reduction-tensor identities (projector and vec forms) and
    the memoryless (ell = 0) agreement of the delay scheme with the K x K
    Liouville-von Neumann stepping under a driven sinusoidal field.
    """
    rng = np.random.default_rng(seed)
    h = random_hermitian(k_orbitals, rng)
    mu = random_hermitian(k_orbitals, rng)
    fld = FieldProfile(0.5, 0.9, 5)
    report = {"k_orbitals": k_orbitals, "dt": dt, "n_steps": n_steps}
    ident = verify_bplus_identities(
        build_B(build_one_electron_system(h, mu, c="identity", field=fld).system),
        rng=seed)
    report["identities"] = ident
    for label, c in (("identity", "identity"),
                     ("random_unitary", random_unitary(k_orbitals ** 2, rng))):
        oe = build_one_electron_system(h, mu, c=c, field=fld)
        b = build_B(oe.system)
        run = propagate_coefficients(oe.system, dt, n_steps)
        q_true = reduced_density_series(run, b)
        q_lvn = [q_true[0]]
        for j in range(n_steps):
            u = matexp_hermitian(oe.orbital_hamiltonian(j * dt), -1j * dt)
            q_lvn.append(u @ q_lvn[-1] @ u.conj().T)
        q_lvn = np.asarray(q_lvn)
        devs = {}
        devs["truth_vs_lvn"] = float(np.abs(q_true - q_lvn).max())
        for mode in ("constrained", "raw"):
            q_model, _ = run_delay_propagation(
                oe.system, b, dt, n_steps, DelayConfig(0, 1), q_true, mode=mode)
            devs[f"memoryless_{mode}"] = float(np.abs(q_model - q_lvn).max())
        report[label] = devs
    report["max_deviation"] = max(
        v for key in ("identity", "random_unitary") for v in report[key].values())
    return report


# ---------------------------------------------------------------------------
# Mori-Zwanzig comparison


def mz_compare(dim: int, m_reduced: int, steps: int, seed: int = 0,
               diagonal: bool = True, truncate_memory_half: bool = False) -> dict:
    """Memory-summed (Mori-Zwanzig style) vs delay propagation on one system.

    Builds a constant unitary (diagonal or dense) of size `dim`, observes the
    first `m_reduced` coordinates, and propagates the reduced vector with
    both schemes against direct full-state propagation.  The delay scheme
    needs ell = max(dim // m_reduced - 1, 1) exact steps to fill its window,
    so `steps` must be at least ell.
    """
    if not 1 <= m_reduced < dim:
        raise ValidationError(f"need 1 <= m_reduced < dim, got m_reduced {m_reduced}, dim {dim}")
    ell = max(dim // m_reduced - 1, 1)
    if steps < ell:
        raise ValidationError(f"steps must be at least the delay depth {ell}, got {steps}")
    rng = np.random.default_rng(seed)
    if diagonal:
        a = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim)))
    else:
        a = random_unitary(dim, rng)
    r = ReductionMap(np.eye(dim)[:m_reduced].astype(complex))
    z0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    z0 /= np.linalg.norm(z0)
    # direct propagation
    zs = [z0]
    for _ in range(steps):
        zs.append(a @ zs[-1])
    direct = np.asarray([r.matrix @ z for z in zs])
    # Mori-Zwanzig with orthonormal completion and exact unobserved start
    rtilde = complete_reduction_basis(r)
    mz_traj, diverged = mori_zwanzig_propagate(
        a, r, direct[0], rtilde @ z0, steps,
        rtilde=rtilde, truncate_memory_half=truncate_memory_half)
    mz_err = float(np.linalg.norm(mz_traj - direct, axis=1).max())
    # delay scheme with ell >= floor(n/m) - 1
    cfg = DelayConfig(ell=ell, stride=1)
    hist = HistoryBuffer(depth=cfg.depth)
    for j in range(cfg.depth + 1):
        hist.push(a if j > 0 else None, direct[j])
    delay_traj = list(direct[:cfg.depth + 1])
    for j in range(cfg.depth, steps):
        y_next, _ = propagate_y(hist, r, a, cfg)
        delay_traj.append(y_next)
        hist.push(a, y_next)
    delay_err = float(np.linalg.norm(np.asarray(delay_traj) - direct, axis=1).max())
    return {
        "dim": dim, "m": m_reduced, "steps": steps, "diagonal": diagonal,
        "mz_max_error": mz_err, "mz_diverged": bool(diverged),
        "delay_max_error": delay_err, "delay_ell": ell,
    }
