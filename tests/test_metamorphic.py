"""Metamorphic relations of `DelayPropagator`, from the paper's claim that
the B tensor holds regardless of basis set or choice of Slater determinants.

- Relabelling the CI basis (permuting h0_diag, m_dip, the rows of
  c_matrix and a0) must reproduce the delay Q.
- Relabelling the determinants (permuting index_map.combos and the columns
  of c_matrix together) leaves B, and with it the delay Q, unchanged.
- Conjugating the system (H -> -conj(H), C -> conj(C), a0 -> conj(a0))
  must give conj(Q).
- At full rank the raw and the constrained modes solve for the same P, so
  they must give the same Q.

Each relation runs the whole pipeline on both sides: `build_B`, the
ground-truth warm start, the memory, the assembly with its pivot (which
relabelling moves to another configuration), the gate, reuse past the
field cutoff and the push.  Each holds only up to rounding, which a solve
amplifies by its condition number, so Q is compared to 1e-13 times the
largest cond of the three runs (about 450 eps cond; the worst of 60
random draws on criterion 5's system read 34 eps cond).  Past the field
cutoff the recurrence is fixed, and the difference grows with the steps:
on seed 2's system at ell 7, stride 1, it reads 6.8e-12 ten steps into the
run and 4.0e-8 at 150 steps (cond 1.7e5), 2.4e-13 cond for the
configuration relabelling [0, 2, 1, 3] and up to 1.2e-13 cond for
determinant relabellings.  The determinant relation, whose draws start
there, is compared to 1e-12 cond.  Only full-rank configurations are
drawn: at a rank-deficient step a moved pivot changes the minimum-norm
solution, so the relations need not hold there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay import (
    CiSystem,
    DelayConfig,
    DeterminantIndexMap,
    FieldProfile,
    build_B,
    generate_synthetic_system,
    propagate_coefficients,
    reduced_density_series,
)
from rdmdelay.constraint_prop import run_delay_propagation

DT_COARSE = 0.08268
DT_FINE = 0.008268


def _relabelled(system, perm):
    """The same system with CI configuration perm[i] renamed i."""
    return CiSystem(system.n_electrons, system.n_orbitals, system.c_matrix[perm],
                    system.index_map, system.h0_diag[perm], system.m_dip[np.ix_(perm, perm)],
                    system.field)


def _determinants_relabelled(system, perm):
    """The same system with determinant perm[i] renamed i: C's columns and
    the index map's tuples move together."""
    imap = system.index_map
    combos = tuple(imap.combos[i] for i in perm)
    return CiSystem(system.n_electrons, system.n_orbitals, system.c_matrix[:, perm],
                    DeterminantIndexMap(imap.n_electrons, imap.n_spin_orbitals, combos),
                    system.h0_diag, system.m_dip, system.field)


def _conjugated(system):
    """The system whose H(t) is -conj(H(t)) and whose C is conj(C): its
    coefficients are the conjugates of the original's."""
    return CiSystem(system.n_electrons, system.n_orbitals, system.c_matrix.conj(),
                    system.index_map, -system.h0_diag, -system.m_dip.conj(), system.field)


def _delay_q(system, a0, dt, cfg, steps, mode):
    """Q of a run `steps` steps past its warm start, and its steps' largest cond."""
    b = build_B(system)
    n_steps = cfg.depth + steps
    q_true = reduced_density_series(propagate_coefficients(system, dt, n_steps, a0=a0), b)
    q, records = run_delay_propagation(system, b, dt, n_steps, cfg, q_true, mode=mode)
    unknowns = system.n_configs ** 2 - (mode == "constrained")
    assert [r.effective_rank for r in records] == [unknowns] * steps  # full rank only
    return q, max(r.condition_number for r in records)


def _assert_relations(system, a0, dt, cfg, steps, mode, perm):
    q, cond = _delay_q(system, a0, dt, cfg, steps, mode)
    q_relabelled, cond_relabelled = _delay_q(_relabelled(system, perm), a0[perm], dt, cfg,
                                             steps, mode)
    q_conjugated, cond_conjugated = _delay_q(_conjugated(system), a0.conj(), dt, cfg, steps,
                                             mode)
    tol = 1e-13 * max(cond, cond_relabelled, cond_conjugated)
    assert np.abs(q_relabelled - q).max() <= tol
    assert np.abs(q_conjugated - q.conj()).max() <= tol


def _assert_determinant_relabelling(system, a0, dt, cfg, steps, mode, perm):
    """Q of the system with its determinants relabelled is the original's
    within 1e-12 cond (see the module docstring)."""
    q, cond = _delay_q(system, a0, dt, cfg, steps, mode)
    q_relabelled, cond_relabelled = _delay_q(_determinants_relabelled(system, perm), a0, dt,
                                             cfg, steps, mode)
    assert np.abs(q_relabelled - q).max() <= 1e-12 * max(cond, cond_relabelled)


def _unit(local, n):
    a0 = local.standard_normal(n) + 1j * local.standard_normal(n)
    return a0 / np.linalg.norm(a0)


@settings(max_examples=16, derandomize=True)
@given(seed=st.sampled_from([2, 3, 4, 6, 13, 14]), ell=st.integers(7, 10),
       stride=st.integers(1, 3), r_tol=st.sampled_from([1e-12, 1e-6]),
       mode=st.sampled_from(["constrained", "raw"]), perm=st.permutations(range(4)))
def test_relabelling_and_conjugation_reproduce_q(seed, ell, stride, r_tol, mode, perm):
    # N_C = 4 systems that stay full rank at these ell, strides and r_tol;
    # a one-cycle field ends at step 84, so the last steps reuse their solve
    system = generate_synthetic_system(4, 2, seed=seed, field=FieldProfile(0.5, 0.9, 1))
    a0 = _unit(np.random.default_rng((seed, 1)), 4)
    _assert_relations(system, a0, DT_COARSE, DelayConfig(ell, stride, r_tol), 150, mode,
                      np.array(perm))


@settings(max_examples=8, derandomize=True)
@given(seed=st.sampled_from([2, 3, 4, 6, 13, 14]), ell=st.integers(7, 10),
       stride=st.integers(1, 3), r_tol=st.sampled_from([1e-12, 1e-6]),
       mode=st.sampled_from(["constrained", "raw"]), perm=st.permutations(range(4)))
def test_determinant_relabelling_reproduces_q(seed, ell, stride, r_tol, mode, perm):
    # the systems and draws of the test above; B is a sum over determinant
    # pairs, which a relabelling only reorders
    system = generate_synthetic_system(4, 2, seed=seed, field=FieldProfile(0.5, 0.9, 1))
    a0 = _unit(np.random.default_rng((seed, 1)), 4)
    _assert_determinant_relabelling(system, a0, DT_COARSE, DelayConfig(ell, stride, r_tol),
                                    150, mode, np.array(perm))


def test_relations_hold_at_n_c_16_stride_8():
    # the nc16-ell32-k8 benchmark workload's system, on a short horizon
    system = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    local = np.random.default_rng(11)
    a0 = _unit(local, 16)
    cfg = DelayConfig(32, 8, 1e-6)
    _assert_relations(system, a0, DT_FINE, cfg, 10, "constrained", local.permutation(16))
    _assert_determinant_relabelling(system, a0, DT_FINE, cfg, 10, "constrained",
                                    local.permutation(16))


@pytest.mark.parametrize("a0_seed", [None, 7])
def test_raw_and_constrained_modes_agree_at_full_rank(a0_seed):
    # criterion 5's system at ell 20, past its field cutoff (step 423), so
    # both modes reuse their solve at the end; both are full rank at every
    # step (16 and 15 unknowns), so the two least-squares solutions are the
    # one P up to rounding: within 1e-13 cond, as above (the a0 of the
    # criterion read 0.8 eps cond)
    system = generate_synthetic_system(4, 2, seed=3)
    a0 = None if a0_seed is None else _unit(np.random.default_rng(a0_seed), 4)
    cfg = DelayConfig(20)
    q_raw, cond_raw = _delay_q(system, a0, DT_COARSE, cfg, 500, "raw")
    q_constrained, cond_constrained = _delay_q(system, a0, DT_COARSE, cfg, 500, "constrained")
    assert np.abs(q_raw - q_constrained).max() <= 1e-13 * max(cond_raw, cond_constrained)
