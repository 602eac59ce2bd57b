"""`DelayPropagator.records`: the diagnostics of the pending steps are
computed a chunk at a time, by one stacked call each, and every record is
the same whenever it is read.  The per-step formulas themselves are checked
in `tests/test_step_helpers.py`."""

import warnings

import numpy as np
import pytest

from rdmdelay.ci_model import build_B
from rdmdelay.constraint_prop import _PENDING_BYTES, DelayPropagator, run_delay_propagation
from rdmdelay.delay_core import DelayConfig
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import generate_synthetic_system
from rdmdelay.numkit import NumericalError

DT = 0.08268


@pytest.fixture(scope="module")
def crit5():
    """Criterion 5's system, its B tensor and 300 steps of ground truth."""
    system = generate_synthetic_system(4, 2, seed=3)
    b = build_B(system)
    return system, b, reduced_density_series(propagate_coefficients(system, DT, 300), b)


def _warm(crit5, mode, ell=8, start=0):
    system, b, q_true = crit5
    cfg = DelayConfig(ell=ell)
    prop = DelayPropagator(system, b, cfg, DT, mode=mode)
    prop.warm_start(q_true[start:start + cfg.depth + 1], start_step=start)
    return prop


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_changing_the_returned_q_and_p_hat_changes_no_record(crit5, mode):
    ref, prop = _warm(crit5, mode), _warm(crit5, mode)
    for _ in range(40):
        ref.step()
        q = prop.step()
        q[...] = np.nan
        prop.last_p_hat[...] = np.nan
    assert len(prop._pending) == 40  # no chunk was recorded before the changes
    assert prop.records == ref.records


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_a_step_that_raises_keeps_the_earlier_records(crit5, mode):
    ref, prop = _warm(crit5, mode), _warm(crit5, mode)
    for _ in range(5):
        ref.step()
        prop.step()
    prop._q_hist[0, 1] = np.nan  # the newest Q
    with pytest.raises(NumericalError, match="solve stage"):
        prop.step()
    assert prop.records == ref.records and len(prop.records) == 5


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_a_second_warm_start_keeps_the_pending_records(crit5, mode):
    first, second, prop = _warm(crit5, mode), _warm(crit5, mode, start=100), _warm(crit5, mode)
    for _ in range(30):
        first.step()
        prop.step()
    prop.warm_start(crit5[2][100:109], start_step=100)
    for _ in range(10):
        second.step()
        prop.step()
    assert prop.records == first.records + second.records


def test_eigvalsh_runs_once_per_chunk(crit5, monkeypatch):
    prop = _warm(crit5, "constrained")
    slots = len(prop._pending_p)
    n_steps = 2 * slots + 7
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for _ in range(n_steps):
        prop.step()
    assert shapes == [(slots, 4, 4)] * 2
    assert len(prop.records) == n_steps
    assert shapes == [(slots, 4, 4)] * 2 + [(7, 4, 4)]
    prop.records  # nothing pending: no call
    assert len(shapes) == 3


def test_pending_copies_are_bounded_in_bytes(crit5):
    # one byte bound for every size: an N_C = 4 propagator holds many more
    # steps than an N_C = 16 one
    small = _warm(crit5, "constrained")
    system = generate_synthetic_system(16, 4, seed=5, h0_scale=10.0)
    large = DelayPropagator(system, build_B(system), DelayConfig(ell=1), DT)
    for prop in (small, large):
        assert prop._pending_p.nbytes + prop._pending_q.nbytes <= _PENDING_BYTES
    assert len(small._pending_p) > 10 * len(large._pending_p) >= 10


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_a_rank_deficient_run_warns_once(crit5, mode):
    system, b, q_true = crit5
    unknowns = 15 if mode == "constrained" else 16
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, records = run_delay_propagation(system, b, DT, 40, DelayConfig(ell=1), q_true,
                                           mode=mode)
    ranks = [r.effective_rank for r in records]
    assert max(ranks) < unknowns
    assert [w.category for w in caught] == [RuntimeWarning]
    assert str(caught[0].message).startswith(
        f"39 of 39 delay steps were rank-deficient (rank below the {unknowns} unknowns), "
        f"the first step 2 with rank {ranks[0]};")


@pytest.mark.filterwarnings("error")
def test_a_full_rank_run_does_not_warn(crit5):
    system, b, q_true = crit5
    _, records = run_delay_propagation(system, b, DT, 60, DelayConfig(ell=20), q_true)
    assert min(r.effective_rank for r in records) == 15
