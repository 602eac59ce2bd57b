import dataclasses
import itertools

import numpy as np
import pytest

from rdmdelay.ci_model import (
    CiSystem,
    DeterminantIndexMap,
    FieldProfile,
    build_B,
    build_one_electron_system,
    load_system,
    one_electron_index_map,
    oracle_B,
    reduce_density,
    save_system,
    slater_core,
    verify_bplus_identities,
)
from rdmdelay.numkit import ValidationError, flatten, pinv_thresholded, random_hermitian, random_unitary

rng = np.random.default_rng(2024)


def _all_pairs_system(k_orbitals, seed):
    """Two-electron system over every determinant, random unitary C."""
    local = np.random.default_rng(seed)
    n_so = 2 * k_orbitals
    combos = tuple(itertools.combinations(range(1, n_so + 1), 2))
    imap = DeterminantIndexMap(2, n_so, combos)
    n_c = len(combos)
    return CiSystem(
        n_electrons=2,
        n_orbitals=k_orbitals,
        c_matrix=random_unitary(n_c, local),
        index_map=imap,
        h0_diag=np.sort(local.standard_normal(n_c)),
        m_dip=random_hermitian(n_c, local),
    )


def test_field_profile_exact_cutoff():
    f = FieldProfile(amplitude=0.5, omega=0.9, cycles=5)
    t_off = 2 * np.pi * 5 / 0.9
    assert f(0.3) == 0.5 * np.sin(0.9 * 0.3)
    assert f(t_off + 1e-9) == 0.0
    assert f(1e9) == 0.0


@pytest.mark.parametrize("amplitude, omega, cycles", [
    (np.nan, 0.9, 5), (np.inf, 0.9, 5), (-np.inf, 0.9, 5), (0.5, np.nan, 5), (0.5, np.inf, 5),
    (0.5, 0.0, 5), (0.5, 0.9, np.nan), (0.5, 0.9, np.inf),
])
def test_field_profile_rejects_non_finite_parameters(amplitude, omega, cycles):
    with pytest.raises(ValidationError):
        FieldProfile(amplitude=amplitude, omega=omega, cycles=cycles)


def test_hamiltonian_stack_matches_single_times():
    s = _all_pairs_system(2, seed=4)
    s = CiSystem(**{f: getattr(s, f) for f in ("n_electrons", "n_orbitals", "c_matrix",
                                               "index_map", "h0_diag", "m_dip")},
                 field=FieldProfile(-0.5, 0.9, 1))
    times = [0.0, 0.3, 2.0, 1e3]  # f = -0.0 at t = 0, 0.0 after the cutoff
    stack = s.hamiltonian(np.array(times))
    assert stack.shape == (4, 6, 6)
    assert stack.tobytes() == np.stack([s.hamiltonian(t) for t in times]).tobytes()
    assert s.hamiltonian([]).shape == (0, 6, 6)
    with pytest.raises(ValidationError, match="1-d array"):
        s.hamiltonian(np.zeros((2, 2)))


def test_index_map_rejects_duplicates_and_range():
    with pytest.raises(ValidationError):
        DeterminantIndexMap(2, 4, ((1, 2), (2, 1)))  # same determinant reordered
    with pytest.raises(ValidationError):
        DeterminantIndexMap(2, 4, ((1, 5),))  # spin-orbital out of range
    with pytest.raises(ValidationError):
        DeterminantIndexMap(2, 4, ((1, 1),))  # repeated occupation


def test_one_electron_index_map_k2():
    imap = one_electron_index_map(2)
    assert imap.combos == ((1, 2), (3, 2), (1, 4), (3, 4))


def test_slater_core_diagonal_blocks_are_projector_sums():
    imap = one_electron_index_map(2)
    core = slater_core(imap)
    for q, (i1, i2) in enumerate(imap.combos):
        block = core[q, q]
        assert np.max(np.abs(block.imag)) == 0.0
        evals = np.linalg.eigvalsh(block)
        assert evals.min() > -1e-14
        # a sum of N spatial-orbital projectors, trace N
        assert abs(np.trace(block) - 2.0) < 1e-14
        expect = np.zeros((2, 2))
        for i in (i1, i2):
            u = (i + 1) // 2 - 1
            expect[u, u] += 1.0
        assert np.allclose(block, expect, atol=1e-14)


def test_build_B_invariants_random_system():
    s = _all_pairs_system(3, seed=5)
    b = build_B(s)
    b.check_invariants()
    # adjoint symmetry, spot-checked explicitly
    assert np.max(np.abs(b.data - b.data.conj().transpose(1, 0, 3, 2))) < 1e-12


@pytest.mark.parametrize("k_orbitals", [2, 3])
def test_build_B_matches_oracle_two_electrons(k_orbitals):
    s = _all_pairs_system(k_orbitals, seed=k_orbitals)
    assert np.max(np.abs(build_B(s).data - oracle_B(s).data)) < 1e-12


def test_build_B_matches_oracle_three_electrons_subset():
    local = np.random.default_rng(7)
    combos = tuple(itertools.combinations(range(1, 7), 3))[:5]
    imap = DeterminantIndexMap(3, 6, combos)
    s = CiSystem(
        n_electrons=3,
        n_orbitals=3,
        c_matrix=random_unitary(5, local),
        index_map=imap,
        h0_diag=np.sort(local.standard_normal(5)),
        m_dip=random_hermitian(5, local),
    )
    assert np.max(np.abs(build_B(s).data - oracle_B(s).data)) < 1e-12


def test_oracle_single_determinant_has_only_diagonal_block():
    imap = DeterminantIndexMap(2, 4, ((1, 2),))
    s = CiSystem(
        n_electrons=2,
        n_orbitals=2,
        c_matrix=np.eye(1, dtype=complex),
        index_map=imap,
        h0_diag=np.zeros(1),
        m_dip=np.zeros((1, 1)),
    )
    b = oracle_B(s)
    assert b.data.shape == (1, 1, 2, 2)
    assert np.allclose(b.data[0, 0], np.diag([2.0, 0.0]))


def test_oracle_refuses_large_n():
    combos = tuple(itertools.combinations(range(1, 11), 5))[:2]
    imap = DeterminantIndexMap(5, 10, combos)
    s = CiSystem(
        n_electrons=5,
        n_orbitals=5,
        c_matrix=np.eye(2, dtype=complex),
        index_map=imap,
        h0_diag=np.zeros(2),
        m_dip=np.zeros((2, 2)),
    )
    with pytest.raises(ValidationError):
        oracle_B(s)


def test_reduce_density_linearity_and_trace():
    s = _all_pairs_system(2, seed=9)
    b = build_B(s)
    assert np.max(np.abs(reduce_density(np.zeros((6, 6)), b))) == 0.0
    p = random_hermitian(6, rng)
    p = p @ p.conj().T
    p /= np.trace(p).real
    q = reduce_density(p, b)
    assert np.max(np.abs(q - q.conj().T)) < 1e-12
    assert abs(np.trace(q).real - 2.0) < 1e-10


def test_reduce_density_ground_determinant():
    oe = build_one_electron_system(np.diag([1.0, 2.0]), np.zeros((2, 2)), c="identity")
    b = build_B(oe.system)
    p = np.zeros((4, 4), dtype=complex)
    p[0, 0] = 1.0
    # both electrons sit in molecular orbital 1
    assert np.allclose(reduce_density(p, b), np.diag([2.0, 0.0]), atol=1e-14)


def test_one_electron_hamiltonian_diagonal_case():
    oe = build_one_electron_system(np.diag([1.0, 2.0]), np.zeros((2, 2)), c="identity")
    h = oe.system.hamiltonian(0.0)
    assert np.allclose(h, np.diag([2.0, 3.0, 3.0, 4.0]), atol=1e-14)


def test_one_electron_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        build_one_electron_system(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def test_system_rejects_non_finite_dipole():
    local = np.random.default_rng(5)
    m_dip = random_hermitian(4, local)
    m_dip[0, 1] = m_dip[1, 0] = np.nan
    with pytest.raises(ValidationError, match="M_dip has non-finite"):
        CiSystem(n_electrons=2, n_orbitals=2, c_matrix=np.eye(4),
                 index_map=one_electron_index_map(2),
                 h0_diag=np.arange(4.0), m_dip=m_dip)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_system_rejects_non_finite_c(bad):
    # a NaN unitarity defect fails the bound, as a large one does
    system = _all_pairs_system(2, seed=3)
    c = system.c_matrix.copy()
    c[1, 2] = bad
    with pytest.raises(ValidationError, match="C is not unitary"):
        dataclasses.replace(system, c_matrix=c)


def test_system_keeps_read_only_copies():
    # H(t) must not change under an edit of the caller's arrays or the system's
    h0_full = np.diag([2.0, 3.0, 3.0, 4.0]).astype(complex)
    h0_diag, m_dip = np.real(np.diag(h0_full)).copy(), np.eye(4, dtype=complex)
    s = CiSystem(n_electrons=2, n_orbitals=2, c_matrix=np.eye(4),
                 index_map=one_electron_index_map(2), h0_diag=h0_diag,
                 m_dip=m_dip, field=FieldProfile(amplitude=1.0), h0_full=h0_full)
    h = s.hamiltonian(0.5)
    h0_diag[0] = h0_full[0, 0] = m_dip[0, 0] = 100.0
    assert np.array_equal(s.hamiltonian(0.5), h)
    for name in ("h0_diag", "m_dip", "h0_full"):
        with pytest.raises(ValueError):
            getattr(s, name)[0] = 0.0


@pytest.mark.parametrize("k_orbitals", [2, 4])
def test_bplus_identities(k_orbitals):
    local = np.random.default_rng(k_orbitals)
    h = random_hermitian(k_orbitals, local)
    mu = random_hermitian(k_orbitals, local)
    oe = build_one_electron_system(h, mu, c="identity")
    b = build_B(oe.system)
    report = verify_bplus_identities(b, rng=local)
    assert report["projector_deviation"] < 1e-12
    assert report["forward_identity_deviation"] < 1e-12
    assert report["reference_forward_deviation"] < 1e-12
    assert report["reference_inverse_deviation"] < 1e-12


def test_bplus_special_values():
    # W = I: vec(4K*I) pulls back to 2 vec(identity on the product space)
    oe = build_one_electron_system(np.diag([1.0, 2.0]), np.zeros((2, 2)), c="identity")
    bt = build_B(oe.system).matricized
    bp = pinv_thresholded(bt, 1e-12).pinv
    k = 2
    assert np.max(np.abs(bt @ bp - np.eye(k * k))) < 1e-12
    got = bp @ flatten((4.0 * k) * np.eye(k))
    assert np.max(np.abs(got - 2.0 * flatten(np.eye(k * k)))) < 1e-12


def test_save_load_round_trip(tmp_path):
    s = _all_pairs_system(2, seed=13)
    path = tmp_path / "system.json"
    save_system(s, path)
    s2 = load_system(path)
    assert np.array_equal(s2.c_matrix, s.c_matrix)
    assert np.array_equal(s2.h0_diag, s.h0_diag)
    assert np.array_equal(s2.m_dip, s.m_dip)
    assert s2.index_map.combos == s.index_map.combos
    assert s2.field == s.field
    again = tmp_path / "again.json"
    save_system(s2, again)
    assert again.read_bytes() == path.read_bytes()
