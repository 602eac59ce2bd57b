"""Configuration-interaction domain model.

Determinant index maps, the 4-index reduction tensor B mapping full CI
densities P (N_C x N_C) to one-electron reduced densities Q (K x K), a
brute-force permutation-sum oracle for B, the one-electron (separable
Hamiltonian) system constructor, and system-file serialization.

Conventions
-----------
Spin-orbitals are 1-based integers 1..2K; spin-orbital u occupies spatial
orbital ceil(u/2), with odd u carrying alpha spin and even u beta spin.
The tensor is stored as ``data[k, l, b, c]`` (all 0-based) so that

    Q[b, c] = sum_{k,l} P[k, l] * data[k, l, b, c].

The canonical matricization B~ (K^2 x N_C^2) uses column-major flattening
on both sides: vec(Q) = B~ vec(P).  A separate export reproduces the
reference integer matrix layout: rows sweep determinant pairs (k, l) with
l fastest, columns sweep orbital pairs (b, c) with b fastest.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .numkit import (
    ValidationError,
    as_complex_matrix,
    flatten,
    is_unitary,
    pinv_thresholded,
    require_hermitian,
)


@dataclass(frozen=True)
class FieldProfile:
    """Sinusoidal driving field f(t) = A sin(omega t), cut off after `cycles` periods."""

    amplitude: float = 0.0
    omega: float = 1.0
    cycles: int = 5

    def __post_init__(self):
        # a NaN passes a plain comparison; an infinite omega gives cutoff 0
        if not math.isfinite(self.amplitude):
            raise ValidationError(f"amplitude must be finite, got {self.amplitude}")
        if not 0 < self.omega < math.inf:
            raise ValidationError(f"omega must be positive and finite, got {self.omega}")
        if (isinstance(self.cycles, bool) or not 1 <= self.cycles < math.inf
                or int(self.cycles) != self.cycles):
            raise ValidationError(f"cycles must be a positive integer, got {self.cycles}")

    @property
    def cutoff_time(self) -> float:
        return 2.0 * math.pi * self.cycles / self.omega

    def __call__(self, t: float) -> float:
        if t < 0.0 or t > self.cutoff_time:
            return 0.0
        return self.amplitude * math.sin(self.omega * t)


@dataclass(frozen=True)
class DeterminantIndexMap:
    """Enumeration i(q) of N-tuples of distinct spin-orbital indices in 1..2K."""

    n_electrons: int
    n_spin_orbitals: int
    combos: tuple

    def __post_init__(self):
        combos = tuple(tuple(int(u) for u in tup) for tup in self.combos)
        object.__setattr__(self, "combos", combos)
        n, two_k = self.n_electrons, self.n_spin_orbitals
        if n < 1 or two_k < n or two_k % 2 != 0:
            raise ValidationError(
                f"bad index map dimensions: N={n}, spin-orbitals={two_k}"
            )
        seen = set()
        for tup in combos:
            if len(tup) != n or len(set(tup)) != n:
                raise ValidationError(f"tuple {tup} is not {n} distinct indices")
            if any(u < 1 or u > two_k for u in tup):
                raise ValidationError(f"tuple {tup} out of range 1..{two_k}")
            key = frozenset(tup)
            if key in seen:
                raise ValidationError(
                    f"tuples {tup}: reordered duplicates of the same determinant"
                )
            seen.add(key)
        if len(combos) > math.comb(two_k, n):
            raise ValidationError("more determinants than C(2K, N)")

    @property
    def n_configs(self) -> int:
        return len(self.combos)

    @property
    def n_orbitals(self) -> int:
        return self.n_spin_orbitals // 2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CiSystem:
    """A TDCI system: CI coefficients, determinant map, Hamiltonian data, field.

    H(t) = H0 + f(t) * M_dip, with H0 = diag(h0_diag) unless a dense h0_full
    is supplied (needed for one-electron systems with non-diagonalizing C).
    h0_diag, m_dip and h0_full are stored as read-only copies, so H(t) is
    fixed for the life of the instance.
    """

    n_electrons: int
    n_orbitals: int
    c_matrix: np.ndarray
    index_map: DeterminantIndexMap
    h0_diag: np.ndarray
    m_dip: np.ndarray
    field: FieldProfile = field(default_factory=FieldProfile)
    h0_full: np.ndarray | None = None

    def __post_init__(self):
        c = as_complex_matrix(self.c_matrix, "C")
        object.__setattr__(self, "c_matrix", c)
        n_c = self.index_map.n_configs
        if c.shape != (n_c, n_c):
            raise ValidationError(f"C has shape {c.shape}, expected {(n_c, n_c)}")
        if not is_unitary(c):
            raise ValidationError("C is not unitary within 1e-10")
        if self.index_map.n_electrons != self.n_electrons:
            raise ValidationError("index map / n_electrons mismatch")
        if self.index_map.n_orbitals != self.n_orbitals:
            raise ValidationError("index map / n_orbitals mismatch")
        h0 = np.array(self.h0_diag, dtype=float)
        if h0.shape != (n_c,) or not np.all(np.isfinite(h0)):
            raise ValidationError("h0_diag must be a finite real vector of length N_C")
        object.__setattr__(self, "h0_diag", _read_only(h0))
        m = require_hermitian(np.array(self.m_dip, dtype=complex), name="M_dip")
        object.__setattr__(self, "m_dip", _read_only(m))
        if self.h0_full is not None:
            hf = require_hermitian(np.array(self.h0_full, dtype=complex), name="H0")
            object.__setattr__(self, "h0_full", _read_only(hf))
        # ground_truth.step_unitary's cache; not a field, so dataclasses.replace starts empty
        object.__setattr__(self, "_step_unitaries", {})

    @property
    def n_configs(self) -> int:
        return self.index_map.n_configs

    def hamiltonian(self, t) -> np.ndarray:
        """H(t) = H0 + f(t) M_dip; for a 1-d array of times, the stack
        (len(t), N_C, N_C) of H at each time."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValidationError(f"t must be a time or a 1-d array of times, "
                                  f"got shape {times.shape}")
        h0 = self.h0_full if self.h0_full is not None else np.diag(self.h0_diag)
        f = np.array([self.field(s) for s in times.ravel()]).reshape(times.shape + (1, 1))
        return h0 + f * self.m_dip


class BTensor:
    """The 4-index tensor contracting full densities into 1RDMs."""

    def __init__(self, data: np.ndarray, n_electrons: int):
        data = np.asarray(data, dtype=complex)
        if data.ndim != 4 or data.shape[0] != data.shape[1] or data.shape[2] != data.shape[3]:
            raise ValidationError(f"B tensor has shape {data.shape}")
        self.data = data
        self.n_electrons = n_electrons
        self.n_configs = data.shape[0]
        self.n_orbitals = data.shape[2]

    @property
    def matricized(self) -> np.ndarray:
        """Canonical K^2 x N_C^2 matrix: vec(Q) = matricized @ vec(P), column-major."""
        k, n_c = self.n_orbitals, self.n_configs
        return self.data.transpose(3, 2, 1, 0).reshape(k * k, n_c * n_c)

    @property
    def printed_layout(self) -> np.ndarray:
        """N_C^2 x K^2 export in the reference layout.

        Row r sweeps determinant pairs (k, l) with l fastest; column j sweeps
        orbital pairs (b, c) with b fastest (the column-major vec index of Q).
        """
        k, n_c = self.n_orbitals, self.n_configs
        return self.data.transpose(0, 1, 3, 2).reshape(n_c * n_c, k * k)

    def check_invariants(self, atol: float = 1e-10):
        """Adjoint symmetry and the constant-trace contraction (unitary C)."""
        adj = np.abs(self.data - self.data.transpose(1, 0, 3, 2).conj()).max()
        if adj > 1e-12 * max(1.0, np.abs(self.data).max()):
            raise ValidationError(f"B adjoint-symmetry defect {adj:.3e}")
        tr = np.einsum("klbb->kl", self.data)
        dev = np.abs(tr - self.n_electrons * np.eye(self.n_configs)).max()
        if dev > atol:
            raise ValidationError(f"B trace-contraction defect {dev:.3e}")


def _permutation_parity(perm: Sequence[int]) -> int:
    """Parity (0 even, 1 odd) of a permutation of 0..n-1 via cycle counting."""
    n = len(perm)
    seen = [False] * n
    parity = 0
    for i in range(n):
        if seen[i]:
            continue
        j, cyc = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            cyc += 1
        parity ^= (cyc - 1) & 1
    return parity


def _case_two_sign(tup_q: Sequence[int], tup_qp: Sequence[int], a: int, a_prime: int) -> int:
    """(-1)^Z for determinant pairs differing in exactly one spin-orbital.

    Z is the parity of the permutation carrying i(q') onto i(q) with the
    substitution a -> a' made in place.
    """
    target = [a_prime if u == a else u for u in tup_q]
    pos = {u: i for i, u in enumerate(tup_qp)}
    perm = [pos[u] for u in target]
    return -1 if _permutation_parity(perm) else 1


def slater_core(index_map: DeterminantIndexMap) -> np.ndarray:
    """Determinant-level tensor: core[q, q', b, c] scaled so that Case I has trace N.

    Case I (q = q'): sum of spatial-orbital projectors over the N occupied
    spin-orbitals.  Case II (tuples differing in exactly one spin-orbital a
    in i(q) vs a' in i(q'), same spin parity): (-1)^Z at (b, c) =
    (ceil(a/2), ceil(a'/2)).  All other pairs vanish.
    """
    n = index_map.n_electrons
    n_c, k = index_map.n_configs, index_map.n_orbitals
    core = np.zeros((n_c, n_c, k, k))
    combos = index_map.combos
    for q, tq in enumerate(combos):
        for u in tq:
            w = (u + 1) // 2 - 1
            core[q, q, w, w] += 1.0
        set_q = set(tq)
        for qp in range(q + 1, n_c):
            tqp = combos[qp]
            only_q = set_q - set(tqp)
            only_qp = set(tqp) - set_q
            if len(only_q) != 1:
                continue
            a, a_prime = only_q.pop(), only_qp.pop()
            if (a - a_prime) % 2 != 0:
                continue  # opposite spins integrate to zero
            b, c = (a + 1) // 2 - 1, (a_prime + 1) // 2 - 1
            assert b != c, "same spatial orbital with same spin implies a == a'"
            sign = _case_two_sign(tq, tqp, a, a_prime)
            core[q, qp, b, c] += sign
            core[qp, q, c, b] += sign
    return core


def build_B(system: CiSystem) -> BTensor:
    """B tensor via the two-case determinant analysis, contracted with C."""
    core = slater_core(system.index_map)
    data = np.einsum("kq,lp,qpbc->klbc", system.c_matrix,
                     system.c_matrix.conj(), core, optimize=True)
    return BTensor(data, system.n_electrons)


def oracle_B(system: CiSystem) -> BTensor:
    """B tensor by the raw (N!)^2 permutation double sum — no case analysis.

    For each determinant pair, sums over all orderings of both tuples with
    permutation signs, requiring exact agreement of the trailing N-1
    spin-orbitals and equal spin parity in the leading slot; the leading
    spatial orbitals give the (b, c) placement.  Cost makes this an
    N <= 4 oracle only.
    """
    n = system.n_electrons
    if n > 4:
        raise ValidationError(f"oracle limited to N <= 4, got N = {n}")
    imap = system.index_map
    n_c, k = imap.n_configs, imap.n_orbitals
    perms = list(itertools.permutations(range(n)))
    signs = [(-1) ** _permutation_parity(p) for p in perms]
    core = np.zeros((n_c, n_c, k, k))
    norm = 1.0 / math.factorial(n - 1)
    for q, tq in enumerate(imap.combos):
        for qp, tqp in enumerate(imap.combos):
            for p, sp in zip(perms, signs):
                gam = [tq[p[j]] for j in range(n)]
                for pp, spp in zip(perms, signs):
                    gam_p = [tqp[pp[j]] for j in range(n)]
                    if gam[1:] != gam_p[1:]:
                        continue
                    if (gam[0] - gam_p[0]) % 2 != 0:
                        continue
                    b, c = (gam[0] + 1) // 2 - 1, (gam_p[0] + 1) // 2 - 1
                    core[q, qp, b, c] += sp * spp * norm
    data = np.einsum("kq,lp,qpbc->klbc", system.c_matrix,
                     system.c_matrix.conj(), core, optimize=True)
    return BTensor(data, n)


def reduce_density(p: np.ndarray, b: BTensor) -> np.ndarray:
    """1RDM from a full density: Q[b,c] = sum_{k,l} P[k,l] B[k,l,b,c]."""
    p = as_complex_matrix(p, "P")
    n_c = b.n_configs
    if p.shape != (n_c, n_c):
        raise ValidationError(f"P has shape {p.shape}, expected {(n_c, n_c)}")
    return np.einsum("kl,klbc->bc", p, b.data)


def one_electron_index_map(k_orbitals: int) -> DeterminantIndexMap:
    """The K^2 determinants (one alpha, one beta electron) of the separable model.

    q = (j_beta - 1) K + j_alpha maps to the tuple (2 j_alpha - 1, 2 j_beta),
    so the full CI Hamiltonian of a one-electron operator h is exactly
    h (x) I + I (x) h.
    """
    combos = []
    for j_beta in range(1, k_orbitals + 1):
        for j_alpha in range(1, k_orbitals + 1):
            combos.append((2 * j_alpha - 1, 2 * j_beta))
    return DeterminantIndexMap(2, 2 * k_orbitals, tuple(combos))


@dataclass(frozen=True)
class OneElectronSystem:
    """A CiSystem with separable Hamiltonian H(t) = C (h(t) (x) I + I (x) h(t)) C†.

    Keeps the K x K orbital-space matrices so the closed 2-level (or K-level)
    Liouville-von Neumann dynamics of the 1RDM can serve as a reference.
    """

    system: CiSystem
    h_orb: np.ndarray
    mu_orb: np.ndarray

    def orbital_hamiltonian(self, t: float) -> np.ndarray:
        return self.h_orb + self.system.field(t) * self.mu_orb


def build_one_electron_system(h: np.ndarray, mu: np.ndarray, c="diagonalize",
                              field: FieldProfile | None = None) -> OneElectronSystem:
    """Separable (one-electron Hamiltonian) two-electron system for K orbitals.

    `c` may be "identity", "diagonalize" (C = V† from the eigendecomposition
    of h(x)I + I(x)h, making H0 diagonal), or an explicit unitary matrix.
    """
    h = as_complex_matrix(h, "h")
    require_hermitian(h, name="h")
    mu = as_complex_matrix(mu, "mu")
    require_hermitian(mu, name="mu")
    if h.shape != mu.shape:
        raise ValidationError("h and mu must have the same shape")
    k = h.shape[0]
    field = field if field is not None else FieldProfile()
    eye = np.eye(k)
    h1 = np.kron(h, eye) + np.kron(eye, h)
    mu1 = np.kron(mu, eye) + np.kron(eye, mu)
    if isinstance(c, str) and c == "identity":
        c_mat = np.eye(k * k, dtype=complex)
    elif isinstance(c, str) and c == "diagonalize":
        _, v = np.linalg.eigh(h1)
        c_mat = v.conj().T
    elif isinstance(c, str):
        raise ValidationError(f"unknown C mode {c!r}")
    else:
        c_mat = as_complex_matrix(c, "C")
    # The CI-basis coefficients relate to determinant amplitudes by d = C^T a,
    # so the Hamiltonian pairing with the B-tensor contraction C_{kq} is
    # conj(C) H1 C^T (equal to C H1 C^dagger whenever C is real orthogonal,
    # and still diagonal in the "diagonalize" mode).
    h0_full = c_mat.conj() @ h1 @ c_mat.T
    m_dip = c_mat.conj() @ mu1 @ c_mat.T
    system = CiSystem(
        n_electrons=2,
        n_orbitals=k,
        c_matrix=c_mat,
        index_map=one_electron_index_map(k),
        h0_diag=np.real(np.diag(h0_full)),
        m_dip=m_dip,
        field=field,
        h0_full=h0_full,
    )
    return OneElectronSystem(system=system, h_orb=h, mu_orb=mu)


def verify_bplus_identities(b: BTensor, rng=None) -> dict:
    """Exactness identities of the one-electron (C = I) reduction tensor.

    For the separable index map, B~ vec(W (x) I + I (x) W) = vec(2K W + 2 tr(W) I)
    for every K x K matrix W, and B~ B~+ is the K^2 identity.  On the
    trace-2 slice this reduces to the reference forms vec(4W + 4I) (K = 2)
    and vec(8W + 4I) (K = 4), which are checked verbatim along with the
    pseudoinverse direction B~+ vec(...) = vec(W (x) I + I (x) W), each
    for ten random W, with B~+ thresholded at r_tol 1e-12.
    """
    rng = np.random.default_rng(rng)
    k = b.n_orbitals
    bt = b.matricized
    pinv, _, _ = pinv_thresholded(bt, 1e-12)
    eye = np.eye(k)
    dev_proj = float(np.abs(bt @ pinv - np.eye(k * k)).max())
    dev_fwd = dev_ref_fwd = dev_ref_inv = 0.0
    for _ in range(10):
        w = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        big = np.kron(w, eye) + np.kron(eye, w)
        lhs = bt @ flatten(big)
        rhs = flatten(2 * k * w + 2 * np.trace(w) * eye)
        dev_fwd = max(dev_fwd, float(np.abs(lhs - rhs).max()))
        # trace-2 slice, where the reference 4W+4I / 8W+4I forms hold
        w2 = w + ((2.0 - np.trace(w)) / k) * eye
        big2 = np.kron(w2, eye) + np.kron(eye, w2)
        ref = flatten(2 * k * w2 + 4 * eye)
        dev_ref_fwd = max(dev_ref_fwd, float(np.abs(bt @ flatten(big2) - ref).max()))
        dev_ref_inv = max(dev_ref_inv, float(np.abs(pinv @ ref - flatten(big2)).max()))
    return {
        "k_orbitals": k,
        "projector_deviation": dev_proj,
        "forward_identity_deviation": dev_fwd,
        "reference_forward_deviation": dev_ref_fwd,
        "reference_inverse_deviation": dev_ref_inv,
    }


def _reim(m: np.ndarray) -> list:
    """m as nested lists of [real, imag] pairs of Python floats."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _from_reim(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def save_system(system: CiSystem, path) -> None:
    """Write a system-definition JSON file.  Each float is written as its
    shortest repr, which reads back to the same float.  The file's h0_diag
    is the diagonal of the H0 that `CiSystem.hamiltonian` uses, h0_full's
    when one is set, which must then be diagonal."""
    h0 = system.h0_full if system.h0_full is not None else np.diag(system.h0_diag)
    if np.abs(h0 - np.diag(np.diag(h0))).max() > 0:
        raise ValidationError("only systems with diagonal H0 are serializable")
    doc = {
        "n_electrons": system.n_electrons,
        "n_orbitals": system.n_orbitals,
        "n_configs": system.n_configs,
        "c_matrix": _reim(system.c_matrix),
        "index_map": [list(t) for t in system.index_map.combos],
        "h0_diag": np.diag(h0).real.tolist(),
        "m_dip": _reim(system.m_dip),
        "field": {
            "amplitude": float(system.field.amplitude),
            "omega": float(system.field.omega),
            "cycles": system.field.cycles,
        },
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_system(path) -> CiSystem:
    """Read a system-definition JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read system file {path}: {exc}") from exc
    try:
        n = int(doc["n_electrons"])
        k = int(doc["n_orbitals"])
        n_c = int(doc["n_configs"])
        index_map = DeterminantIndexMap(
            n, 2 * k, tuple(tuple(t) for t in doc["index_map"]))
        fld = doc["field"]
        # cycles goes through unconverted, so that FieldProfile rejects a
        # fractional count instead of int() truncating it
        field_profile = FieldProfile(float(fld["amplitude"]), float(fld["omega"]),
                                     fld["cycles"])
        c = _from_reim(doc["c_matrix"])
        h0 = np.asarray(doc["h0_diag"], dtype=float)
        m_dip = _from_reim(doc["m_dip"])
    except KeyError as exc:
        raise ValidationError(f"bad system file {path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad system file {path}: {exc}") from exc
    if index_map.n_configs != n_c:
        raise ValidationError(f"n_configs = {n_c} but index map lists "
                              f"{index_map.n_configs} determinants")
    return CiSystem(n_electrons=n, n_orbitals=k, c_matrix=c, index_map=index_map,
                    h0_diag=h0, m_dip=m_dip, field=field_profile)
