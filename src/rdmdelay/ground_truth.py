"""Reference TDCI propagation.

Advances the CI coefficient vector with the left-endpoint exponential scheme
a(t + dt) = exp(-i H(t) dt) a(t), forms full densities P(t) = a(t) a(t)†,
reduces them to the 1RDM series Q_true(t), and provides the eigenvalue-drift
diagnostic showing that no K x K Hamiltonian generates Q(t) by a
Liouville-von Neumann equation in the interacting case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ci_model import BTensor, CiSystem, FieldProfile, reduce_density
from .numkit import ValidationError, as_complex_matrix, matexp_hermitian

__all__ = [
    "FieldProfile",
    "GroundTruthRun",
    "step_unitary",
    "release_step_unitaries",
    "propagate_coefficients",
    "full_density_series",
    "reduced_density_series",
    "eigenvalue_drift",
]


@dataclass(frozen=True)
class GroundTruthRun:
    """Coefficient trajectory of one reference propagation."""

    system: CiSystem
    dt: float
    coefficients: np.ndarray  # shape (n_steps + 1, N_C)

    @property
    def n_steps(self) -> int:
        return self.coefficients.shape[0] - 1

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.coefficients.shape[0])


def step_unitary(system: CiSystem, t: float, dt: float) -> np.ndarray:
    """The step unitary exp(-i H(t) dt), computed once per system for each
    distinct (f(t), dt).

    H(t) = H0 + f(t) M_dip depends on t only through the field value, so all
    steps after the field cutoff (and t = 0) share one entry.  The entries
    live on the system instance until `release_step_unitaries` drops them,
    and are returned read-only; each costs N_C^2 complex numbers, so a run
    holds one per driven step and dt.  The ground truth and the delay
    propagators take their unitaries from here.
    """
    f = system.field(t)
    # 0.0 and -0.0 compare equal, but H0 + f M_dip keeps the sign of a zero
    key = (f, math.copysign(1.0, f))
    by_field = system._step_unitaries.setdefault(dt, {})
    u = by_field.get(key)
    if u is None:
        u = matexp_hermitian(system.hamiltonian(t), -1j * dt)
        u.flags.writeable = False
        by_field[key] = u
    return u


def release_step_unitaries(system: CiSystem, dt: float) -> None:
    """Drop the step unitaries `system` keeps for time step `dt`."""
    system._step_unitaries.pop(dt, None)


def propagate_coefficients(system: CiSystem, dt: float, n_steps: int,
                           a0: np.ndarray | None = None) -> GroundTruthRun:
    """Left-endpoint exponential stepping of the CI coefficients.

    a(0) defaults to the first basis vector (the system prepared in the
    lowest CI state when H0 is diagonal and sorted).
    """
    if not 0 < dt < np.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if n_steps < 0:
        raise ValidationError(f"n_steps must be nonnegative, got {n_steps}")
    n_c = system.n_configs
    if a0 is None:
        a = np.zeros(n_c, dtype=complex)
        a[0] = 1.0
    else:
        a = np.asarray(a0, dtype=complex).ravel()
        if a.shape != (n_c,):
            raise ValidationError(f"a0 has length {a.size}, expected {n_c}")
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > 1e-10:
            raise ValidationError(f"a0 must be unit norm, got {nrm}")
    traj = np.empty((n_steps + 1, n_c), dtype=complex)
    traj[0] = a
    for j in range(n_steps):
        a = step_unitary(system, j * dt, dt) @ a
        traj[j + 1] = a
    return GroundTruthRun(system=system, dt=dt, coefficients=traj)


def full_density_series(run: GroundTruthRun) -> np.ndarray:
    """P(t) = a(t) a(t)†, shape (n_steps + 1, N_C, N_C)."""
    a = run.coefficients
    return np.einsum("tk,tl->tkl", a, a.conj())


def reduced_density_series(run: GroundTruthRun, b: BTensor) -> np.ndarray:
    """Q_true(t) series, shape (n_steps + 1, K, K)."""
    a = run.coefficients
    return np.einsum("tk,tl,klbc->tbc", a, a.conj(), b.data, optimize=True)


def eigenvalue_drift(q_series) -> np.ndarray:
    """|lambda_j(t) - lambda_j(0)| per step, eigenvalues sorted descending."""
    q_series = np.asarray(q_series)
    drifts = []
    lam0 = None
    for q in q_series:
        q = as_complex_matrix(q, "Q")
        if np.abs(q - q.conj().T).max() > 1e-10 * max(1.0, np.abs(q).max()):
            raise ValidationError("eigenvalue_drift requires Hermitian matrices")
        lam = np.linalg.eigvalsh(q)[::-1]
        if lam0 is None:
            lam0 = lam
        drifts.append(np.abs(lam - lam0))
    return np.asarray(drifts)
