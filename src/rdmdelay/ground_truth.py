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
from typing import Sequence

import numpy as np

from .ci_model import BTensor, CiSystem, FieldProfile
from .numkit import ValidationError, matexp_hermitian, require_hermitian

__all__ = [
    "FieldProfile",
    "GroundTruthRun",
    "UNITARY_CHUNK",
    "step_unitaries",
    "step_unitary",
    "release_step_unitaries",
    "require_step_count",
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


# Missing step unitaries are computed this many at a time: one stacked
# eigendecomposition per chunk spares the per-call overhead of small N_C,
# and the chunk bounds the temporaries of a long driven horizon.
UNITARY_CHUNK = 32


def _field_key(f: float) -> tuple[float, float]:
    # 0.0 and -0.0 compare equal, but H0 + f M_dip keeps the sign of a zero
    return f, math.copysign(1.0, f)


def step_unitaries(system: CiSystem, times: Sequence[float] | np.ndarray,
                   dt: float) -> list[np.ndarray]:
    """The step unitaries exp(-i H(t) dt) at each of `times` (a sequence or
    1-d array), computed once per system for each distinct (f(t), dt).

    H(t) = H0 + f(t) M_dip depends on t only through the field value, so all
    steps after the field cutoff (and t = 0) share one entry.  The distinct
    field values not yet cached are computed in chunks of UNITARY_CHUNK
    matrices, one `matexp_hermitian` call on the stacked Hamiltonians per
    chunk; each unitary is then copied out of its chunk into an array of
    its own, so that a cached entry keeps no chunk alive.  The entries live
    on the system instance until `release_step_unitaries` drops them, and
    are returned read-only; each costs N_C^2 complex numbers, so a run holds
    one per driven step and dt.
    """
    if not 0 < dt < math.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    # one float per step, not one key tuple: a long horizon holds this list
    fields = [system.field(t) for t in times]
    by_field = system._step_unitaries.setdefault(dt, {})
    # each missing key once, with a time at which the field takes its value
    missing = {}
    for t, f in zip(times, fields):
        key = _field_key(f)
        if key not in by_field:
            missing[key] = t
    pending = list(missing.items())
    for start in range(0, len(pending), UNITARY_CHUNK):
        chunk = pending[start:start + UNITARY_CHUNK]
        stack = matexp_hermitian(system.hamiltonian([t for _, t in chunk]), -1j * dt)
        for (key, _), u in zip(chunk, stack):
            u = u.copy()
            u.flags.writeable = False
            by_field[key] = u
    return [by_field[_field_key(f)] for f in fields]


def step_unitary(system: CiSystem, t: float, dt: float) -> np.ndarray:
    """The step unitary exp(-i H(t) dt) of `step_unitaries` at one time.

    A cached entry is a dictionary lookup; a miss goes through
    `step_unitaries`.  The ground truth and the delay propagators take their
    unitaries from here or from `step_unitaries`.
    """
    u = system._step_unitaries.get(dt, {}).get(_field_key(system.field(t)))
    return u if u is not None else step_unitaries(system, [t], dt)[0]


def release_step_unitaries(system: CiSystem, dt: float) -> None:
    """Drop the step unitaries `system` keeps for time step `dt`."""
    system._step_unitaries.pop(dt, None)


def require_step_count(n_steps: int, n_c: int) -> None:
    """Raise ValidationError unless n_steps is nonnegative and the
    (n_steps + 1, n_c) complex trajectory of `propagate_coefficients` is
    within numpy's array size limit."""
    if n_steps < 0:
        raise ValidationError(f"n_steps must be nonnegative, got {n_steps}")
    # in Python integers, which do not wrap
    if (int(n_steps) + 1) * n_c * np.dtype(complex).itemsize > np.iinfo(np.intp).max:
        raise ValidationError(f"n_steps = {n_steps:.6g} is too large: a coefficient "
                              f"trajectory of {n_c} complex numbers per step exceeds "
                              "numpy's array size limit")


def propagate_coefficients(system: CiSystem, dt: float, n_steps: int,
                           a0: np.ndarray | None = None) -> GroundTruthRun:
    """Left-endpoint exponential stepping of the CI coefficients,
    a(t + dt) = exp(-i H(t) dt) a(t).

    a(0) defaults to the first basis vector (the system prepared in the
    lowest CI state when H0 is diagonal and sorted); a given a0 must be
    finite and of unit norm.  All step unitaries of the horizon come from
    one `step_unitaries` call, which computes the missing ones in chunks;
    the matrix-vector products then run in order.
    """
    if not 0 < dt < np.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    n_c = system.n_configs
    require_step_count(n_steps, n_c)
    if a0 is None:
        a = np.zeros(n_c, dtype=complex)
        a[0] = 1.0
    else:
        a = np.asarray(a0, dtype=complex).ravel()
        if a.shape != (n_c,):
            raise ValidationError(f"a0 has length {a.size}, expected {n_c}")
        # a NaN norm passes the comparison below
        if not np.isfinite(a).all():
            raise ValidationError("a0 has non-finite entries")
        nrm = np.linalg.norm(a)
        if abs(nrm - 1.0) > 1e-10:
            raise ValidationError(f"a0 must be unit norm, got {nrm}")
    try:
        traj = np.empty((n_steps + 1, n_c), dtype=complex)
    except MemoryError as exc:
        raise ValidationError(f"n_steps = {n_steps:.6g}: no memory for a coefficient "
                              f"trajectory of {n_c} complex numbers per step") from exc
    traj[0] = a
    for j, u in enumerate(step_unitaries(system, dt * np.arange(n_steps), dt)):
        a = u @ a
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
    q = np.asarray(q_series, dtype=complex)
    if q.ndim != 3 or 0 in q.shape or q.shape[1] != q.shape[2]:
        raise ValidationError(f"Q series must have shape (T, K, K), got {q.shape}")
    require_hermitian(q, rtol=1e-10, name="eigenvalue_drift's Q series")
    lam = np.linalg.eigvalsh(q)[:, ::-1]
    return np.abs(lam - lam[0])
