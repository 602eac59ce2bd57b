import contextlib
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdmdelay import delay_core
from rdmdelay.delay_core import (
    DelayConfig,
    HistoryBuffer,
    ReductionMap,
    build_M,
    complete_reduction_basis,
    mori_zwanzig_propagate,
    propagate_y,
)
from rdmdelay.numkit import (
    NumericalError,
    ValidationError,
    matexp_hermitian,
    pinv_thresholded,
    random_hermitian,
    random_unitary,
)

rng = np.random.default_rng(507)


def _random_history(n, m_rows, depth, seed=0):
    """Unitary step sequence plus the matching reduced observations."""
    local = np.random.default_rng(seed)
    r = ReductionMap(local.standard_normal((m_rows, n))
                     + 1j * local.standard_normal((m_rows, n)))
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    props = [random_unitary(n, local) for _ in range(depth)]
    hist = HistoryBuffer(depth)
    hist.push(None, r.matrix @ z)
    zs = [z]
    for a in props:
        z = a @ z
        zs.append(z)
        hist.push(a, r.matrix @ z)
    return r, hist, zs, props, local


def test_build_M_no_memory_is_R():
    r, hist, _, _, _ = _random_history(4, 2, 0)
    m = build_M(hist, r, DelayConfig(ell=0))
    assert np.array_equal(m, r.matrix)


def test_build_M_identity_propagators_stack_R():
    n, ell = 3, 4
    r = ReductionMap(rng.standard_normal((2, n)) + 0j)
    hist = HistoryBuffer(ell)
    hist.push(None, np.zeros(2))
    for _ in range(ell):
        hist.push(np.eye(n, dtype=complex), np.zeros(2))
    m = build_M(hist, r, DelayConfig(ell=ell))
    for j in range(ell + 1):
        assert np.allclose(m[2 * j:2 * j + 2], r.matrix, atol=1e-14)


@pytest.mark.parametrize("stride", [1, 3])
def test_build_M_matches_full_state_back_propagation(stride):
    n, m_rows, ell = 5, 2, 3
    r, hist, zs, props, _ = _random_history(n, m_rows, ell * stride, seed=11)
    m = build_M(hist, r, DelayConfig(ell=ell, stride=stride))
    z_now = zs[-1]
    # stacked history of reduced states, spaced stride steps apart
    expect = []
    z_back = z_now
    consumed = 0
    expect.append(r.matrix @ z_back)
    for j in range(1, ell + 1):
        for _ in range(stride):
            z_back = props[-1 - consumed].conj().T @ z_back
            consumed += 1
        expect.append(r.matrix @ z_back)
    assert np.max(np.abs(m @ z_now - np.concatenate(expect))) < 1e-12
    # and it reproduces the stored reduced history directly
    assert np.max(np.abs(m @ z_now - hist.stacked_reduced(
        DelayConfig(ell=ell, stride=stride)))) < 1e-12


def test_build_M_insufficient_history_message():
    r, hist, _, _, _ = _random_history(4, 2, 2)
    with pytest.raises(ValidationError, match="need 6"):
        build_M(hist, r, DelayConfig(ell=3, stride=2))


def test_propagate_y_square_reduction_exact():
    n = 4
    local = np.random.default_rng(3)
    r = ReductionMap(random_unitary(n, local))  # m = n, invertible
    a = random_unitary(n, local)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist = HistoryBuffer(1)
    hist.push(None, r.matrix @ z)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=0))
    assert np.max(np.abs(y_next - r.matrix @ (a @ z))) < 1e-12
    assert diag.effective_rank == n


def test_propagate_y_matches_full_state_oracle():
    # n = 4, m = 2 needs ell >= n/m - 1 = 1 delay block
    n, m_rows, ell = 4, 2, 1
    r, hist, zs, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=ell))
    assert np.max(np.abs(y_next - r.matrix @ (a @ zs[-1]))) < 1e-10
    assert not diag.rank_deficient


@pytest.mark.filterwarnings("error")
def test_propagate_y_reports_rank_deficiency_without_a_warning():
    # a run of steps warns once, from its caller (warn_rank_deficient)
    r, hist, _, _, local = _random_history(6, 2, 1, seed=4)
    a = random_unitary(6, local)
    _, diag = propagate_y(hist, r, a, DelayConfig(ell=1))
    assert diag.rank_deficient and diag.effective_rank < 6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("age", [0, 1], ids=["newest", "oldest"])
def test_propagate_y_non_finite_history_raises_numerical_error(bad, age):
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    hist.reduced[-1 - age][1] = bad
    with pytest.raises(NumericalError, match="solve stage"):
        propagate_y(hist, r, a, DelayConfig(ell=ell))


@pytest.mark.filterwarnings("error")
def test_propagate_y_non_finite_propagator_names_propagation_stage():
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    a[0, 0] = np.inf
    with pytest.raises(NumericalError, match="propagation stage"):
        propagate_y(hist, r, a, DelayConfig(ell=ell))


@pytest.mark.filterwarnings("error")
def test_propagate_y_numerical_error_names_the_step():
    # the history holds y(0), y(1); two steps make y(2), y(3), and the
    # failing one would make y(4)
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    a = random_unitary(n, local)
    for _ in range(2):
        y_next, _ = propagate_y(hist, r, a, DelayConfig(ell=ell))
        hist.push(a, y_next)
    a_bad = a.copy()
    a_bad[0, 0] = np.inf
    with pytest.raises(NumericalError, match=r"step 4: the propagation stage"):
        propagate_y(hist, r, a_bad, DelayConfig(ell=ell))


def test_propagate_y_non_finite_memory_names_solve_stage():
    # invertible propagators 1e-200 U step back by 1e200 U^dagger, so M(t)'s
    # third block overflows, and its SVD does not converge
    n, m_rows, ell = 6, 2, 3
    r, _, _, _, local = _random_history(n, m_rows, 0, seed=21)
    a = 1e-200 * random_unitary(n, local)
    hist = HistoryBuffer(ell)
    hist.push(None, local.standard_normal(m_rows) + 0j)
    for _ in range(ell):
        hist.push(a, local.standard_normal(m_rows) + 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="step 4: the solve stage failed"):
            propagate_y(hist, r, a, DelayConfig(ell=ell))


def test_propagate_y_non_finite_propagator_names_memory_stage():
    n, m_rows, ell = 6, 2, 3
    for bad in (np.nan, np.inf):
        r, good, _, props, local = _random_history(n, m_rows, ell, seed=21)
        a = random_unitary(n, local)
        # the history's copies are read-only: the bad propagator is pushed
        hist = HistoryBuffer(ell)
        hist.push(None, good.reduced[0])
        for p, y in zip(props[:-1], list(good.reduced)[1:-1]):
            hist.push(p, y)
        bad_prop = props[-1].copy()
        bad_prop[2, 1] = bad
        hist.push(bad_prop, good.reduced[-1])
        with pytest.raises(NumericalError, match="step 4: the memory-matrix stage failed: "
                                                 "propagator has non-finite entries"):
            propagate_y(hist, r, a, DelayConfig(ell=ell))


def test_propagate_y_steps_back_through_a_propagator_that_is_not_unitary():
    # 1.01 U fails the unitarity bound, so build_M steps back through it
    # with its inverse; its adjoint would miss y(t+1) by up to 0.3
    n, m_rows, ell = 8, 3, 4
    local = np.random.default_rng(4)
    u = random_unitary(n, local)
    r = ReductionMap(np.eye(n)[:m_rows].astype(complex))
    props = [1.01 * u if j == 1 else u for j in range(ell)]
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, props, ell, z)
    y_next, _ = propagate_y(hist, r, u, DelayConfig(ell=ell))
    assert np.max(np.abs(y_next - r.matrix @ (u @ z))) < 1e-12
    # a propagator within the bound, CiSystem's 1e-10 n, steps back by its
    # adjoint
    near = u + 1e-12 * np.eye(n)
    assert np.linalg.norm(near.conj().T @ near - np.eye(n)) <= 1e-10 * n
    hist, _ = _filled_history(r, [near] * ell, ell, z)
    back, blocks = np.eye(n, dtype=complex), [r.matrix]
    for _ in range(ell):
        back = near.conj().T @ back
        blocks.append(r.matrix @ back)
    assert build_M(hist, r, DelayConfig(ell=ell)).tobytes() == np.vstack(blocks).tobytes()


def _copied_history(hist):
    """The same propagators and reduced vectors pushed into a new buffer,
    which holds no kept solve."""
    fresh = HistoryBuffer(hist.depth)
    props, reduced = list(hist.propagators), list(hist.reduced)
    # at depth 0 the one reduced vector came with the one propagator, so the
    # start is a placeholder that the next push drops
    fresh.push(None, reduced[0] if len(reduced) > len(props) else np.zeros_like(reduced[0]))
    for a, y in zip(props, reduced[len(reduced) - len(props):]):
        fresh.push(a, y)
    return fresh


def test_propagate_y_reuses_the_pseudoinverse_while_m_is_unchanged(monkeypatch):
    # mz_compare's delay scheme on a constant dense unitary: every M(t) is
    # the same, so one pseudoinverse serves every step after the first
    n, m_rows = 8, 4
    cfg = DelayConfig(ell=n // m_rows - 1)
    local = np.random.default_rng(12)
    a = random_unitary(n, local)
    r = ReductionMap(np.eye(n)[:m_rows].astype(complex))
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist = HistoryBuffer(cfg.depth)
    hist.push(None, r.matrix @ z)
    for _ in range(cfg.depth):
        z = a @ z
        hist.push(a, r.matrix @ z)
    calls = []

    def counting(*args):
        calls.append(1)
        return pinv_thresholded(*args)

    monkeypatch.setattr(delay_core, "pinv_thresholded", counting)
    for _ in range(40):
        y_ref, diag_ref = propagate_y(_copied_history(hist), r, a, cfg)
        y, diag = propagate_y(hist, r, a, cfg)
        assert y.tobytes() == y_ref.tobytes() and diag == diag_ref
        hist.push(a, y)
    assert len(calls) == 40 + 1  # one per fresh buffer, one for `hist`
    # another r_tol on the same M is solved afresh
    loose = DelayConfig(cfg.ell, r_tol=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y_ref, diag_ref = propagate_y(_copied_history(hist), r, a, loose)
        y, diag = propagate_y(hist, r, a, loose)
    assert y.tobytes() == y_ref.tobytes() and diag == diag_ref
    assert diag.rank_deficient and diag.effective_rank < n


@contextlib.contextmanager
def _counted_calls(names=("build_M", "pinv_thresholded")):
    """Counts of the calls of delay_core's functions `names` made in delay_core."""
    counts = Counter()
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def counting(*args, _name=name, _original=getattr(delay_core, name), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(delay_core, name, counting)
        yield counts


def test_propagate_y_rebuilds_while_propagators_change():
    # every new propagator changes M's window: M is built and factored
    # afresh; a second call on the same history reuses both
    n, m_rows, ell = 4, 2, 1
    r, hist, _, _, local = _random_history(n, m_rows, ell, seed=21)
    for _ in range(5):
        a = random_unitary(n, local)
        with _counted_calls() as calls:
            y, _ = propagate_y(hist, r, a, DelayConfig(ell=ell))
        assert calls == {"build_M": 1, "pinv_thresholded": 1}
        hist.push(a, y)
    with _counted_calls() as calls:
        propagate_y(hist, r, a, DelayConfig(ell=ell))
        propagate_y(hist, r, a, DelayConfig(ell=ell))
    assert calls == {"build_M": 1, "pinv_thresholded": 1}


def _invertible_history(sigma, seed=33):
    """n = 4, m = 2, ell = 1 history under A = U diag(sigma) V, U and V unitary."""
    local = np.random.default_rng(seed)
    n = len(sigma)
    r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
    a = random_unitary(n, local) @ np.diag(sigma) @ random_unitary(n, local)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist = HistoryBuffer(1)
    hist.push(None, r.matrix @ z)
    hist.push(a, r.matrix @ (a @ z))
    return r, hist, a, a @ z


def test_propagate_y_invertible_propagators_step_back_with_the_inverse():
    # the delay equation holds for any invertible A(t): build_M steps back
    # with A^-1 where A is not unitary; A^dagger would miss by O(1)
    sigma = np.random.default_rng(8).uniform(0.5, 2.0, 4)
    r, hist, a, z = _invertible_history(sigma)
    exact = r.matrix @ (a @ z)
    y_next, diag = propagate_y(hist, r, a, DelayConfig(ell=1))
    assert np.max(np.abs(y_next - exact)) < 1e-12
    assert not diag.rank_deficient


def test_propagate_y_ill_conditioned_propagator_raises_numerical_error():
    r, hist, a, _ = _invertible_history(np.array([1.0, 1.0, 1.0, 1e-13]))
    with pytest.raises(NumericalError, match="condition number") as info:
        propagate_y(hist, r, a, DelayConfig(ell=1))
    assert f"step {hist.pushes + 1}: the memory-matrix stage" in str(info.value)


# -- the memory matrix kept by propagate_y ------------------------------------


def _invertible(n, local):
    """A = U diag(sigma) V with U, V unitary and sigma in [0.5, 2]."""
    sigma = local.uniform(0.5, 2.0, n)
    return random_unitary(n, local) @ np.diag(sigma) @ random_unitary(n, local)


def _filled_history(r, props, depth, z, capacity=None):
    """A history holding exact y = R z over the first `depth` propagators."""
    hist = HistoryBuffer(depth if capacity is None else capacity)
    hist.push(None, r.matrix @ z)
    for a in props[:depth]:
        z = a @ z
        hist.push(a, r.matrix @ z)
    return hist, z


def _memory_pairs(r, props, cfg):
    """propagate_y over `props`, the first cfg.depth filling the history;
    per step, the M(t) the step kept and build_M's on the same history."""
    local = np.random.default_rng(0)
    z = local.standard_normal(r.n) + 1j * local.standard_normal(r.n)
    hist, z = _filled_history(r, props, cfg.depth, z)
    pairs = []
    for a in props[cfg.depth:]:
        propagate_y(hist, r, a, cfg)
        pairs.append((hist.memory.factor.a, build_M(hist, r, cfg)))
        z = a @ z
        hist.push(a, r.matrix @ z)
    return pairs


def _memory_case(kind):
    """(r, propagators, cfg) of each run."""
    local = np.random.default_rng(41)
    n, m_rows, ell, steps = 16, 4, 3, 200
    r = ReductionMap(local.standard_normal((m_rows, n)) + 1j * local.standard_normal((m_rows, n)))
    if kind == "dense constant":
        a = random_unitary(n, local)
        return r, [a] * (ell + steps), DelayConfig(ell=ell)
    if kind == "distinct":
        return r, [random_unitary(n, local) for _ in range(ell + steps)], DelayConfig(ell=ell)
    if kind == "invertible":
        n, steps = 6, 60
        r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
        return r, [_invertible(n, local) for _ in range(ell + steps)], DelayConfig(ell=ell)
    if kind == "ell 0":
        return r, [random_unitary(n, local) for _ in range(steps)], DelayConfig(ell=0)
    # ell 1 with coordinate rows
    r = ReductionMap(np.eye(n)[:m_rows].astype(complex))
    return r, [random_unitary(n, local) for _ in range(1 + steps)], DelayConfig(ell=1)


@pytest.mark.parametrize("kind", ["dense constant", "distinct", "invertible", "ell 0",
                                  "ell 1"])
def test_slid_memory_matches_build_M_at_every_step(kind):
    r, props, cfg = _memory_case(kind)
    pairs = _memory_pairs(r, props, cfg)
    assert len(pairs) == len(props) - cfg.depth
    # a kept M is only ever one that build_M formed on the same window
    for kept, built in pairs:
        assert kept.shape == built.shape and kept.tobytes() == built.tobytes()


def _stepped_history(n=6, m_rows=2, ell=2, steps=5, seed=43, capacity=None):
    """A history stepped `steps` times by propagate_y on distinct random
    unitaries, with the next propagator."""
    local = np.random.default_rng(seed)
    r = ReductionMap(local.standard_normal((m_rows, n)) + 1j * local.standard_normal((m_rows, n)))
    props = [random_unitary(n, local) for _ in range(ell + steps + 1)]
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, props, ell, z, capacity)
    cfg = DelayConfig(ell=ell)
    for a in props[ell:-1]:
        propagate_y(hist, r, a, cfg)
        z = a @ z
        hist.push(a, r.matrix @ z)
    return r, hist, cfg, props[-1], z


def _rebuilt(hist, r, cfg):
    return hist.memory.factor.a.tobytes() == build_M(hist, r, cfg).tobytes()


def test_two_pushes_rebuild_the_memory():
    # the kept M's window held distinct propagators, so pushes of a, even
    # once a fills the window, rebuild it; from then on a's pushes reuse it
    r, hist, cfg, a, z = _stepped_history()
    propagate_y(hist, r, a, cfg)
    for _ in range(2):
        z = a @ z
        hist.push(a, r.matrix @ z)
    with _counted_calls() as calls:
        propagate_y(hist, r, a, cfg)
    assert calls == {"build_M": 1, "pinv_thresholded": 1}
    assert _rebuilt(hist, r, cfg)
    hist.push(a, r.matrix @ (a @ z))
    with _counted_calls() as calls:
        propagate_y(hist, r, a, cfg)
    assert calls == {}


@pytest.mark.parametrize("change", ["r", "ell"])
def test_another_map_rebuilds_the_memory(change):
    r, hist, cfg, a, z = _stepped_history(capacity=4)
    for _ in range(cfg.depth):
        z = a @ z
        hist.push(a, r.matrix @ z)
    propagate_y(hist, r, a, cfg)  # M's window holds a alone
    z = a @ z
    hist.push(a, r.matrix @ z)
    with _counted_calls() as calls:
        propagate_y(hist, r, a, cfg)
    assert calls == {}  # the same map reuses M and its factor
    hist.push(a, r.matrix @ (a @ z))
    if change == "r":
        r = ReductionMap(r.matrix.copy())  # r is compared by identity
    else:
        cfg = DelayConfig(ell=cfg.ell + 1)
    with _counted_calls() as calls:
        propagate_y(hist, r, a, cfg)
    assert calls == {"build_M": 1, "pinv_thresholded": 1}
    assert _rebuilt(hist, r, cfg)


def test_stride_above_one_rebuilds_every_step():
    local = np.random.default_rng(44)
    r = ReductionMap(local.standard_normal((2, 6)) + 1j * local.standard_normal((2, 6)))
    props = [random_unitary(6, local) for _ in range(24)]
    for kept, built in _memory_pairs(r, props, DelayConfig(ell=2, stride=2)):
        assert kept.tobytes() == built.tobytes()


def test_a_second_call_without_a_push_returns_the_same_y():
    r, hist, cfg, a, _ = _stepped_history()
    y, diag = propagate_y(hist, r, a, cfg)
    y_again, diag_again = propagate_y(hist, r, a, cfg)
    assert y_again.tobytes() == y.tobytes() and diag_again == diag


def test_ill_conditioned_propagator_after_slid_steps_raises_at_the_next_call():
    local = np.random.default_rng(45)
    n, ell = 4, 1
    r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
    props = [_invertible(n, local) for _ in range(ell + 5)]
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, props, ell, z)
    cfg = DelayConfig(ell=ell)
    for a in props[ell:]:
        propagate_y(hist, r, a, cfg)
        z = a @ z
        hist.push(a, r.matrix @ z)
    bad = random_unitary(n, local) @ np.diag([1.0, 1.0, 1.0, 1e-13]) @ random_unitary(n, local)
    hist.push(bad, r.matrix @ (bad @ z))
    with pytest.raises(NumericalError, match="condition number"):
        propagate_y(hist, r, bad, cfg)


def test_constant_window_is_reused_until_the_propagator_changes():
    # mz_compare's case: a constant dense unitary and coordinate rows
    local = np.random.default_rng(46)
    n, m_rows = 16, 4
    r = ReductionMap(np.eye(n)[:m_rows].astype(complex))
    a, b = random_unitary(n, local), random_unitary(n, local)
    cfg = DelayConfig(ell=n // m_rows - 1)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, [a] * cfg.depth, cfg.depth, z)
    calls = Counter()

    def step(p):
        nonlocal z
        with _counted_calls() as counts:
            y, diag = propagate_y(hist, r, p, cfg)
        calls.update(counts)
        y_fresh, diag_fresh = propagate_y(_copied_history(hist), r, p, cfg)
        assert y.tobytes() == y_fresh.tobytes() and diag == diag_fresh
        assert _rebuilt(hist, r, cfg)
        z = p @ z
        hist.push(p, r.matrix @ z)

    for _ in range(30):
        step(a)
    assert calls == {"build_M": 1, "pinv_thresholded": 1}
    # the first call on b still sees a window of a alone; over the next
    # cfg.depth calls b enters the window, and the last of them finds it
    # filled with b, which the calls after it reuse
    for _ in range(cfg.depth + 10):
        step(b)
    assert calls == {"build_M": 1 + cfg.depth, "pinv_thresholded": 1 + cfg.depth}


_OPS = ("push same", "push copy", "push unitary", "push invertible", "call", "call twice",
        "call loose", "call copied r")


@settings(max_examples=200)
@given(ell=st.integers(0, 3), stride=st.integers(1, 2), spare=st.integers(0, 2),
       ops=st.lists(st.sampled_from(_OPS), max_size=20), seed=st.integers(0, 2**32 - 1))
def test_propagate_y_depends_only_on_the_history(ell, stride, spare, ops, seed):
    # every call gives, bit for bit, what the same call gives on a new
    # buffer with the same contents; once a call has kept M for a window
    # filled with one propagator, pushes of it or of a bitwise-equal copy,
    # and calls at the same map and r_tol, build and factor nothing
    local = np.random.default_rng(seed)
    n = 6
    r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
    cfg = DelayConfig(ell=ell, stride=stride)
    last = random_unitary(n, local)
    hist = HistoryBuffer(cfg.depth + spare)
    for j in range(cfg.depth + 1):
        hist.push(last if j else None, local.standard_normal(2) + 1j * local.standard_normal(2))
    settled = False

    def call(r_call, r_tol=cfg.r_tol):
        cfg_call = DelayConfig(ell, stride, r_tol)
        with _counted_calls() as counts:
            y, diag = propagate_y(hist, r_call, last, cfg_call)
        y_fresh, diag_fresh = propagate_y(_copied_history(hist), r_call, last, cfg_call)
        assert y.tobytes() == y_fresh.tobytes() and diag == diag_fresh
        return counts

    for op in ops:
        if op.startswith("push"):
            if op == "push copy":
                last = last.copy()  # bitwise equal, another object
            elif op == "push unitary":
                last, settled = random_unitary(n, local), False
            elif op == "push invertible":
                last, settled = _invertible(n, local), False
            hist.push(last, local.standard_normal(2) + 1j * local.standard_normal(2))
        elif op == "call loose":
            call(r, 0.5)
            settled = False
        elif op == "call copied r":
            # r is compared by identity, so a copy rebuilds M
            assert call(ReductionMap(r.matrix.copy()))["build_M"] == 1
            settled = False
        else:
            for _ in range(2 if op == "call twice" else 1):
                counts = call(r)
                assert not settled or counts == {}
                settled = all(np.array_equal(hist.propagators[-1 - i], last)
                              for i in range(cfg.depth))


# -- shapes that do not match r -----------------------------------------------


@pytest.mark.parametrize("depth", [-1, 2.5, True, None])
def test_history_buffer_rejects_a_depth_that_is_not_a_count(depth):
    with pytest.raises(ValidationError, match="depth must be an integer >= 0"):
        HistoryBuffer(depth)


def test_history_buffer_accepts_numpy_and_zero_depths():
    assert HistoryBuffer(np.int64(3)).reduced.maxlen == 4
    assert HistoryBuffer(0).reduced.maxlen == 1


def test_push_without_a_propagator_only_starts_a_history():
    # a None propagator after the start would leave `pushes` behind the
    # reduced vectors, and the next step would be built from the wrong y's
    r, hist, cfg, a, z = _stepped_history()
    pushes, reduced = hist.pushes, list(hist.reduced)
    with pytest.raises(ValidationError, match="a_prev may be None only before the first"):
        hist.push(None, r.matrix @ z)
    assert hist.pushes == pushes and list(hist.reduced) == reduced


def test_propagate_y_rejects_a_t_of_another_shape():
    r, hist, cfg, a, _ = _stepped_history()
    with pytest.raises(ValidationError, match=r"a_t has shape \(5, 5\), but r has n = 6"):
        propagate_y(hist, r, a[:5, :5], cfg)


def test_push_rejects_a_propagator_of_another_shape():
    r, hist, cfg, a, z = _stepped_history()
    with pytest.raises(ValidationError,
                       match=r"a_prev has shape \(5, 5\).*propagators have shape \(6, 6\)"):
        hist.push(a[:5, :5], r.matrix @ z)
    # nothing was pushed
    assert hist.propagators[-1].shape == (6, 6) and len(hist.reduced) == cfg.depth + 1
    propagate_y(hist, r, a, cfg)


def test_push_rejects_a_reduced_vector_of_another_length():
    r, hist, cfg, a, z = _stepped_history()
    with pytest.raises(ValidationError,
                       match=r"y has shape \(3,\).*reduced vectors have shape \(2,\)"):
        hist.push(a, np.zeros(3))
    assert hist.reduced[-1].shape == (2,) and hist.propagators[-1] is not a


def test_propagate_y_rejects_a_history_of_other_reduced_vectors():
    r, hist, cfg, a, _ = _stepped_history()
    r3 = ReductionMap(np.vstack([r.matrix, np.eye(6)[0]]))
    with pytest.raises(ValidationError,
                       match=r"reduced vectors have shape \(2,\), but r has m = 3"):
        propagate_y(hist, r3, a, cfg)


def test_propagate_y_rejects_an_r_of_another_n():
    r, hist, cfg, _, _ = _stepped_history()
    r8 = ReductionMap(np.hstack([r.matrix, np.ones((2, 2))]))
    with pytest.raises(ValidationError,
                       match=r"propagators have shape \(6, 6\), but r has n = 8"):
        propagate_y(hist, r8, np.eye(8), cfg)


def test_near_identity_propagators_need_stride():
    # A barely differs from I, so adjacent history rows are nearly
    # dependent; a long stride restores the rank.
    n, m_rows = 4, 2
    local = np.random.default_rng(9)
    h = random_hermitian(n, local)
    a = matexp_hermitian(h, -1e-8j)
    r = ReductionMap(local.standard_normal((m_rows, n)) + 0j)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    stride = 10**6
    hist = HistoryBuffer(stride)
    hist.push(None, r.matrix @ z)
    for _ in range(stride):
        z = a @ z
        hist.push(a, r.matrix @ z)
    m_dense = build_M(hist, r, DelayConfig(ell=1, stride=1))
    m_strided = build_M(hist, r, DelayConfig(ell=1, stride=stride))
    rank_dense = pinv_thresholded(m_dense, 1e-6).effective_rank
    rank_strided = pinv_thresholded(m_strided, 1e-6).effective_rank
    assert rank_dense < n
    assert rank_strided == n


@pytest.mark.parametrize("copies, stride", [(False, 10), (True, 10), (False, 1), (True, 1)],
                         ids=["same array", "bitwise copies", "same array, stride 1",
                              "bitwise copies, stride 1"])
def test_one_run_window_steps_back_a_stride_at_once(monkeypatch, copies, stride):
    # a window of one repeated unitary at stride 10 steps back by its tenth
    # power, formed by repeated squaring, not by ten products per block; at
    # stride 1 the power is the one back-step, and M is the step-by-step
    # product bit for bit
    n, ell = 6, 3
    local = np.random.default_rng(47)
    r = ReductionMap(local.standard_normal((2, n)) + 1j * local.standard_normal((2, n)))
    a = random_unitary(n, local)
    hist = HistoryBuffer(ell * stride)
    hist.push(None, np.zeros(2))
    for _ in range(ell * stride):
        hist.push(a.copy() if copies else a, np.zeros(2))
    back, expect = np.eye(n), [r.matrix]
    for m in range(1, ell * stride + 1):
        back = a.conj().T @ back
        if m % stride == 0:
            expect.append(r.matrix @ back)
    expect = np.vstack(expect)
    calls = Counter()

    def counting(p, _original=delay_core._back_step):
        calls["_back_step"] += 1
        return _original(p)

    monkeypatch.setattr(delay_core, "_back_step", counting)
    m = build_M(hist, r, DelayConfig(ell=ell, stride=stride))
    assert np.abs(m - expect).max() <= 1e-13 * np.abs(expect).max()
    assert stride > 1 or m.tobytes() == expect.tobytes()
    assert calls == {"_back_step": 1}


def test_reduction_map_keeps_its_own_read_only_copy():
    # propagate_y keys its kept M on r's identity, so R must not change
    # under it: a caller's edit of the array it passed in reaches no r
    n, m_rows, ell = 6, 2, 2
    local = np.random.default_rng(48)
    given_r = local.standard_normal((m_rows, n)) + 1j * local.standard_normal((m_rows, n))
    r = ReductionMap(given_r)
    before = r.matrix.copy()
    a = random_unitary(n, local)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, [a] * ell, ell, z)
    y, _ = propagate_y(hist, r, a, DelayConfig(ell=ell))
    given_r[:] = local.standard_normal((m_rows, n))
    assert r.matrix.tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        r.matrix[0, 0] = 1.0
    z = a @ z
    hist.push(a, r.matrix @ z)
    y_next, _ = propagate_y(hist, r, a, DelayConfig(ell=ell))
    assert np.max(np.abs(y_next - r.matrix @ (a @ z))) < 1e-12


def test_an_in_place_edit_of_a_pushed_propagator_reaches_no_kept_memory():
    # the history copies what it is pushed: overwriting the caller's array
    # and pushing it again starts a new run, so M is rebuilt from the new
    # values; holding the caller's array, the call reused the old M, and an
    # entry of y(t+1) missed the new buffer's by 4.7
    n, m_rows, ell = 6, 2, 2
    local = np.random.default_rng(48)
    r = ReductionMap(local.standard_normal((m_rows, n)) + 1j * local.standard_normal((m_rows, n)))
    a = random_unitary(n, local)
    first = a.copy()
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, z = _filled_history(r, [a] * ell, ell, z)
    cfg = DelayConfig(ell=ell)
    propagate_y(hist, r, a, cfg)
    a[...] = random_unitary(n, local)
    z = a @ z
    hist.push(a, r.matrix @ z)
    with _counted_calls() as calls:
        y, diag = propagate_y(hist, r, a, cfg)
    y_fresh, diag_fresh = propagate_y(_copied_history(hist), r, a, cfg)
    assert y.tobytes() == y_fresh.tobytes() and diag == diag_fresh
    assert calls == {"build_M": 1, "pinv_thresholded": 1}
    assert hist.propagators[0].tobytes() == first.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        hist.propagators[-1][0, 0] = 1.0


def test_a_run_of_pushes_holds_one_copy():
    # bitwise-equal pushes, of one array or of copies, share the first's copy
    local = np.random.default_rng(49)
    a = random_unitary(4, local)
    hist = HistoryBuffer(5)
    hist.push(None, np.zeros(2))
    for j in range(5):
        hist.push(a if j % 2 else a.copy(), np.zeros(2))
    assert hist.run_start == 1
    assert all(p is hist.propagators[0] for p in hist.propagators)
    assert hist.propagators[0] is not a


_BUILDS = ("build_M", "factor_least_squares", "_closed_system")


def test_a_reused_call_builds_no_memory_factor_or_coefficients():
    r, hist, cfg, a, z = _stepped_history()
    for _ in range(cfg.depth):
        z = a @ z
        hist.push(a, r.matrix @ z)
    with _counted_calls(_BUILDS) as calls:
        propagate_y(hist, r, a, cfg)  # M's window holds a alone
    assert calls == dict.fromkeys(_BUILDS, 1)
    z = a @ z
    hist.push(a.copy(), r.matrix @ z)
    with _counted_calls(_BUILDS) as calls:
        y, diag = propagate_y(hist, r, a, cfg)
        y_again, diag_again = propagate_y(hist, r, a.copy(), cfg)
    assert calls == {}
    y_fresh, diag_fresh = propagate_y(_copied_history(hist), r, a, cfg)
    assert y.tobytes() == y_again.tobytes() == y_fresh.tobytes()
    assert diag == diag_again == diag_fresh


@pytest.mark.parametrize("change", ["another array", "in place"])
def test_a_new_a_t_on_an_unchanged_memory_rebuilds_the_coefficients_only(change):
    # C = [R A(t) F; M F - I] holds A(t), M does not; an edit of the caller's
    # a_t is found by comparing against C's own copy, not by identity
    r, hist, cfg, a, _ = _stepped_history()
    a = a.copy()
    propagate_y(hist, r, a, cfg)
    b = random_unitary(r.n, np.random.default_rng(50))
    if change == "in place":
        a[...] = b
        b = a
    with _counted_calls(_BUILDS) as calls:
        y, diag = propagate_y(hist, r, b, cfg)
    assert calls == {"_closed_system": 1}
    y_fresh, diag_fresh = propagate_y(_copied_history(hist), r, b, cfg)
    assert y.tobytes() == y_fresh.tobytes() and diag == diag_fresh


def test_coefficients_give_y_and_the_residual_of_the_solve():
    # C Y stacks R A M^+ Y on M M^+ Y - Y; at r_tol 0.5 M is rank-deficient
    # and its residual is far from 0
    for ell, r_tol in ((2, 1e-12), (1, 1e-12), (1, 0.5)):
        r, hist, _, _, local = _random_history(6, 2, ell, seed=51)
        a = random_unitary(6, local)
        y, diag = propagate_y(hist, r, a, DelayConfig(ell=ell, r_tol=r_tol))
        m = build_M(hist, r, DelayConfig(ell=ell))
        y_stack = hist.stacked_reduced(DelayConfig(ell=ell))
        z_hat = pinv_thresholded(m, r_tol).pinv @ y_stack
        assert np.abs(y - r.matrix @ (a @ z_hat)).max() <= 1e-13 * diag.condition_number
        assert diag.residual == pytest.approx(np.linalg.norm(m @ z_hat - y_stack),
                                              rel=1e-12, abs=1e-13)
        assert r_tol < 0.5 or (diag.rank_deficient and diag.residual > 1e-3)


def test_coefficients_from_a_factor_without_a_pseudoinverse():
    # a factor that holds no pseudoinverse (the normal equations' kind)
    # gives F as its solve of the identity
    r, hist, cfg, a, _ = _stepped_history()
    y, diag = propagate_y(hist, r, a, cfg)
    factor = hist.memory.factor

    class SolveOnly(type(factor)):
        def solve(self, b):
            return factor.pinv @ b

    solve_only = SolveOnly(factor.a, None, None, factor.effective_rank,
                           factor.condition_number)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(delay_core, "factor_least_squares", lambda m, r_tol: solve_only)
        y_solved, diag_solved = propagate_y(_copied_history(hist), r, a, cfg)
    assert np.abs(y_solved - y).max() <= 1e-14 * np.abs(y).max()
    assert diag_solved.residual == pytest.approx(diag.residual, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("seed", [0, 1])
def test_closed_recurrence_has_the_propagators_spectrum(seed):
    # mz_compare's dense case: a square, full-rank M and a constant A.  The
    # recurrence Y(t+1) = T Y(t) has the block companion matrix T whose first
    # block row is C's top rows and whose other rows shift Y down one block;
    # T = M A M^-1, so its eigenvalues are A's, on the unit circle.  T's
    # eigenvectors are M's columns times A's, so by Bauer-Fike its rounding
    # eps ||T|| <= eps cond(M) moves them by at most eps cond(M)^2 (the
    # largest reading of seeds 0..5 was 0.06 of that)
    local = np.random.default_rng(seed)
    n, m_rows = 16, 4
    a = random_unitary(n, local)
    r = ReductionMap(np.eye(n)[:m_rows].astype(complex))
    cfg = DelayConfig(ell=n // m_rows - 1)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    hist, _ = _filled_history(r, [a] * cfg.depth, cfg.depth, z)
    propagate_y(hist, r, a, cfg)
    kept = hist.memory
    m = kept.factor.a
    assert m.shape == (n, n) and kept.factor.effective_rank == n
    companion = np.eye(n, k=-m_rows, dtype=complex)
    companion[:m_rows] = kept.coefficients[:m_rows]
    tol = 10 * np.finfo(float).eps * kept.factor.condition_number ** 2
    eigs = np.linalg.eigvals(companion)
    gaps = np.abs(eigs[:, None] - np.linalg.eigvals(a)[None, :])
    assert gaps.min(axis=0).max() <= tol and gaps.min(axis=1).max() <= tol
    assert abs(np.abs(eigs).max() - 1) <= tol
    assert np.abs(companion - m @ a @ np.linalg.inv(m)).max() <= tol


def test_complete_reduction_basis_coordinate_projection():
    r = ReductionMap(np.hstack([np.eye(2), np.zeros((2, 3))]))
    rt = complete_reduction_basis(r)
    # complement rows live entirely on the remaining coordinates
    assert np.max(np.abs(rt[:, :2])) < 1e-12
    assert np.linalg.matrix_rank(rt[:, 2:]) == 3


def test_complete_reduction_basis_invertible_stack():
    r = ReductionMap(rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    rt = complete_reduction_basis(r)
    assert abs(np.linalg.det(np.vstack([r.matrix, rt]))) > 1e-10


def test_complete_reduction_basis_orthonormal_rows():
    q = random_unitary(5, rng)[:2]
    rt = complete_reduction_basis(ReductionMap(q))
    big = np.vstack([q, rt])
    assert np.max(np.abs(big @ big.conj().T - np.eye(5))) < 1e-12


def test_mori_zwanzig_identity_dynamics():
    r = ReductionMap(np.hstack([np.eye(2), np.zeros((2, 2))]) + 0j)
    y0 = np.array([1.0, 2.0])
    traj, diverged = mori_zwanzig_propagate(np.eye(4), r, y0, np.zeros(2), 20)
    assert not diverged
    for y in traj:
        assert np.max(np.abs(y - y0)) < 1e-12


def test_mori_zwanzig_first_step_formula():
    local = np.random.default_rng(17)
    a = random_unitary(5, local)
    q = random_unitary(5, local)[:2]
    r = ReductionMap(q)
    rt = complete_reduction_basis(r)
    rbig = np.vstack([q, rt])
    b = rbig @ a @ np.linalg.inv(rbig)
    y0 = local.standard_normal(2) + 1j * local.standard_normal(2)
    yt0 = local.standard_normal(3) + 1j * local.standard_normal(3)
    traj, _ = mori_zwanzig_propagate(a, r, y0, yt0, 1, rtilde=rt)
    assert np.max(np.abs(traj[1] - (b[:2, :2] @ y0 + b[:2, 2:] @ yt0))) < 1e-12


def test_mori_zwanzig_diagonal_unitary_long_run():
    local = np.random.default_rng(23)
    n, m = 8, 4
    a = np.diag(np.exp(1j * local.uniform(-np.pi, np.pi, n)))
    q = random_unitary(n, local)[:m]
    r = ReductionMap(q)
    rt = complete_reduction_basis(r)
    z0 = local.standard_normal(n) + 1j * local.standard_normal(n)
    direct = [z0]
    for _ in range(200):
        direct.append(a @ direct[-1])
    traj, diverged = mori_zwanzig_propagate(a, r, q @ z0, rt @ z0, 200, rtilde=rt)
    err = max(np.max(np.abs(traj[t] - q @ direct[t])) for t in range(201))
    assert err < 1e-8
    assert not diverged


def test_mori_zwanzig_is_exact_for_a_propagator_that_is_not_unitary():
    # the block recurrence holds for any a; with 1.01 U it tracks the direct
    # propagation to rounding, so mori_zwanzig_propagate needs no unitarity check
    local = np.random.default_rng(29)
    n, m, steps = 8, 3, 40
    a = 1.01 * random_unitary(n, local)
    q = random_unitary(n, local)[:m]
    r = ReductionMap(q)
    rt = complete_reduction_basis(r)
    z = local.standard_normal(n) + 1j * local.standard_normal(n)
    direct = [q @ z]
    traj, diverged = mori_zwanzig_propagate(a, r, q @ z, rt @ z, steps, rtilde=rt)
    for _ in range(steps):
        z = a @ z
        direct.append(q @ z)
    assert np.max(np.abs(traj - np.array(direct))) < 1e-12
    assert not diverged


def _mz_reference(a, r, y0, ytilde0, steps, rtilde, truncate_memory_half=False):
    """The Mori-Zwanzig sum as a per-term double loop, the reference for the
    stacked-kernel sum."""
    rbig = np.vstack([r.matrix, rtilde])
    b = rbig @ a @ np.linalg.inv(rbig)
    m = r.m
    b11, b12, b21, b22 = b[:m, :m], b[:m, m:], b[m:, :m], b[m:, m:]
    traj = [np.asarray(y0, dtype=complex)]
    kernels = []
    b22_pow = np.eye(b22.shape[0], dtype=complex)
    norm0 = np.linalg.norm(y0)
    diverged = False
    for t in range(steps):
        y_next = b11 @ traj[t] + b12 @ (b22_pow @ ytilde0)
        n_terms = (t + 1) // 2 if truncate_memory_half else t
        for s in range(n_terms):
            y_next = y_next + kernels[s] @ traj[t - 1 - s]
        kernels.append(b12 @ b22_pow @ b21)
        b22_pow = b22 @ b22_pow
        traj.append(y_next)
        diverged = diverged or np.linalg.norm(y_next) > 1e3 * norm0
    return traj, diverged


def _mz_case(n, m, kind, seed=31):
    local = np.random.default_rng(seed)
    if kind == "diagonal":
        a = np.diag(np.exp(1j * local.uniform(-np.pi, np.pi, n)))
    elif kind == "growing":
        a = 1.05 * random_unitary(n, local)
    else:
        a = random_unitary(n, local)
    r = ReductionMap(np.eye(n)[:m] + 0j)
    rt = complete_reduction_basis(r)
    if kind == "skewed":
        # a non-orthonormal completion: mixed and rescaled complement rows
        # plus a share of R's rows, still invertible when stacked with R
        mix = np.eye(n - m) + 0.3 * local.standard_normal((n - m, n - m))
        rt = 2.0 * mix @ rt + 0.5 * local.standard_normal((n - m, m)) @ r.matrix
    z0 = local.standard_normal(n) + 1j * local.standard_normal(n)
    return a, r, r.matrix @ z0, rt @ z0, rt


@pytest.mark.parametrize("n, m, kind, steps, truncate, diverges", [
    (16, 4, "dense", 200, False, False),
    (8, 4, "diagonal", 200, False, False),
    (8, 2, "dense", 61, True, False),
    (8, 2, "dense", 60, True, False),
    (6, 3, "dense", 0, False, False),
    (6, 3, "dense", 1, False, False),
    (6, 3, "dense", 1, True, False),
    (7, 3, "skewed", 80, False, False),
    # max ||y(t)|| / ||y(0)|| is 3.0e2 at 120 steps and 2.9e3 at 160
    (6, 2, "growing", 120, False, False),
    (6, 2, "growing", 160, False, True),
    # the powers of B22 are built 32 per block: steps at and around the
    # block boundaries, where a block starts from the last one times B22^32
    (16, 4, "dense", 31, False, False),
    (16, 4, "dense", 32, False, False),
    (16, 4, "dense", 33, False, False),
    (16, 4, "dense", 64, False, False),
    (16, 4, "dense", 65, False, False),
    (16, 4, "dense", 33, True, False),
    (6, 2, "growing", 97, False, False),
])
def test_mori_zwanzig_matches_double_loop(n, m, kind, steps, truncate, diverges):
    a, r, y0, yt0, rt = _mz_case(n, m, kind)
    traj, diverged = mori_zwanzig_propagate(a, r, y0, yt0, steps, rtilde=rt,
                                            truncate_memory_half=truncate)
    ref, ref_diverged = _mz_reference(a, r, y0, yt0, steps, rt, truncate)
    ref = np.asarray(ref)
    assert traj.shape == (steps + 1, m)
    assert diverged == ref_diverged == diverges
    assert np.max(np.abs(traj - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mori_zwanzig_memory_stays_below_a_power_stack():
    # the kernels, forcing terms and trajectory are kept; the powers
    # B12 B22^s are built a block at a time, so no stack of all of them
    # (steps m (n-m) complex entries, 1.5 MB here) is ever alive
    n, m, steps = 16, 4, 2000
    a, r, y0, yt0, rt = _mz_case(n, m, "dense")
    mori_zwanzig_propagate(a, r, y0, yt0, 40, rtilde=rt)  # numpy's first-call allocations
    kept = (m * (steps + 1) * m + steps * m + (steps + 1) * m) * 16
    power_stack = steps * m * (n - m) * 16
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mori_zwanzig_propagate(a, r, y0, yt0, steps, rtilde=rt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < kept + power_stack // 2
    # nor a temporary of the whole trajectory beyond one of its size
    trajectory = (steps + 1) * m * 16
    assert peak - kept < 2 * trajectory


@pytest.mark.parametrize("steps", [-1, 2.5, True])
def test_mori_zwanzig_rejects_bad_steps(steps):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    with pytest.raises(ValidationError, match="steps"):
        mori_zwanzig_propagate(a, r, y0, yt0, steps, rtilde=rt)


@pytest.mark.parametrize("which", ["y0", "ytilde0"])
def test_mori_zwanzig_rejects_wrong_length_start(which):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    args = {"y0": y0, "ytilde0": yt0}
    args[which] = np.append(args[which], 1.0)
    with pytest.raises(ValidationError, match=which):
        mori_zwanzig_propagate(a, r, args["y0"], args["ytilde0"], 5, rtilde=rt)


@pytest.mark.parametrize("which, value", [
    ("a", np.inf), ("a", np.nan), ("y0", np.nan), ("ytilde0", -np.inf)])
def test_mori_zwanzig_rejects_non_finite_input(which, value):
    a, r, y0, yt0, rt = _mz_case(6, 3, "dense")
    args = {"a": a.copy(), "y0": y0.copy(), "ytilde0": yt0.copy()}
    args[which].flat[0] = value
    with pytest.raises(ValidationError, match="finite"):
        mori_zwanzig_propagate(args["a"], r, args["y0"], args["ytilde0"], 5, rtilde=rt)


@pytest.mark.filterwarnings("error")
def test_mori_zwanzig_overflow_names_first_step():
    # the error is all the caller sees: no overflow warning comes before it
    r = ReductionMap(np.eye(4)[:2] + 0j)
    # y(t) = 1e200^t y(0): y(1) is finite, y(2) overflows
    with pytest.raises(NumericalError, match=r"y\(2\)"):
        mori_zwanzig_propagate(1e200 * np.eye(4), r, np.ones(2), np.ones(2), 6)


@pytest.mark.parametrize("kwargs, name", [
    ({"ell": -1}, "ell"),
    ({"ell": 2.5}, "ell"),
    ({"ell": 2.0}, "ell"),
    ({"ell": True}, "ell"),
    ({"stride": 0}, "stride"),
    ({"stride": 1.5}, "stride"),
    ({"stride": False}, "stride"),
    ({"ell": 2, "r_tol": -1e-12}, "r_tol"),
    ({"ell": 2, "r_tol": float("nan")}, "r_tol"),
    ({"ell": 2, "r_tol": float("inf")}, "r_tol"),
])
def test_delay_config_rejects_bad_values(kwargs, name):
    with pytest.raises(ValidationError, match=name):
        DelayConfig(**kwargs)


def test_delay_config_accepts_numpy_integers():
    cfg = DelayConfig(ell=np.int64(3), stride=np.int32(2), r_tol=0)
    assert cfg.depth == 6
