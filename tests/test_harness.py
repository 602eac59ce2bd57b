import json
import warnings

import numpy as np
import pytest

from rdmdelay.ci_model import FieldProfile, build_B, one_electron_index_map
from rdmdelay.ground_truth import propagate_coefficients, reduced_density_series
from rdmdelay.harness import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    generate_synthetic_system,
    mae,
    mae_series,
    mz_compare,
    rmse,
    run_experiment,
    run_sweep,
    validate_one_electron,
)
from rdmdelay.numkit import ValidationError

rng = np.random.default_rng(909)


def _series(n, k, seed):
    local = np.random.default_rng(seed)
    return local.standard_normal((n, k, k)) + 1j * local.standard_normal((n, k, k))


def test_rmse_identical_series_is_zero():
    q = _series(10, 2, 0)
    assert rmse(q, q, ell=2) == 0.0


def test_rmse_constant_offset():
    q = _series(30, 2, 1)
    delta = 0.037
    off = q + delta * np.ones((2, 2))
    assert rmse(off, q, ell=4) == pytest.approx(delta, rel=1e-12)


def test_rmse_matches_loop_definition():
    model, truth = _series(12, 3, 2), _series(12, 3, 3)
    ell = 3
    total = 0.0
    for j in range(ell + 1, 12):
        total += np.sum(np.abs(model[j] - truth[j]) ** 2)
    expect = np.sqrt(total / (9 * (11 - ell)))
    assert rmse(model, truth, ell=ell) == pytest.approx(expect, abs=1e-14)


def test_mae_values():
    q = np.zeros((2, 2), dtype=complex)
    p = q.copy()
    p[0, 1] = 0.04
    assert mae(q, q) == 0.0
    assert mae(p, q) == pytest.approx(0.01, abs=1e-15)
    a, b = _series(1, 3, 4)[0], _series(1, 3, 5)[0]
    assert mae(a, b) == pytest.approx(np.sum(np.abs(a - b)) / 9, abs=1e-15)


def test_mae_series_matches_per_step_mae():
    model, truth = _series(6, 2, 6), _series(6, 2, 7)
    ser = mae_series(model, truth)
    for j in range(6):
        assert ser[j] == pytest.approx(mae(model[j], truth[j]), abs=1e-15)


def test_generate_synthetic_is_deterministic():
    a = generate_synthetic_system(4, 2, seed=42)
    b = generate_synthetic_system(4, 2, seed=42)
    assert np.array_equal(a.c_matrix, b.c_matrix)
    assert np.array_equal(a.h0_diag, b.h0_diag)
    assert np.array_equal(a.m_dip, b.m_dip)


def test_generate_synthetic_shapes():
    s4 = generate_synthetic_system(4, 2, seed=0)
    assert s4.n_configs == 4 and s4.n_orbitals == 2
    assert s4.index_map.combos == one_electron_index_map(2).combos
    s16 = generate_synthetic_system(16, 4, seed=0)
    assert s16.n_configs == 16 and s16.n_orbitals == 4
    s6 = generate_synthetic_system(6, 2, seed=0)  # C(4,2) full determinant set
    assert s6.n_configs == 6
    with pytest.raises(ValidationError):
        generate_synthetic_system(5, 2, seed=0)


def test_generate_synthetic_zero_diag_dipole():
    s = generate_synthetic_system(4, 2, seed=1, zero_diag_dipole=True)
    assert np.max(np.abs(np.diag(s.m_dip))) == 0.0


def test_run_experiment_one_electron_memoryless():
    # separable dynamics close exactly with zero memory
    local = np.random.default_rng(12)
    from rdmdelay.ci_model import build_one_electron_system
    from rdmdelay.numkit import random_hermitian

    oe = build_one_electron_system(
        random_hermitian(2, local), random_hermitian(2, local), c="diagonalize",
        field=FieldProfile(amplitude=0.5, omega=0.9, cycles=5))
    cfg = ExperimentConfig(system=oe.system, dt=0.008268, n_steps=300, ell=0)
    rep = run_experiment(cfg)
    assert rep.rmse < 1e-10


def test_run_experiment_artifacts(tmp_path):
    s = generate_synthetic_system(4, 2, seed=3)
    cfg = ExperimentConfig(system=s, dt=0.08268, n_steps=120, ell=8,
                           out_dir=tmp_path, label="t0")
    rep = run_experiment(cfg)
    steps = (tmp_path / "t0_steps.csv").read_text().splitlines()
    assert steps[0].startswith("step,t,residual")
    assert len(steps) == 1 + 120 - 8  # header + one row per propagated step
    summary = json.loads((tmp_path / "t0_summary.json").read_text())
    assert summary["rmse"] == pytest.approx(rep.rmse)
    assert summary["n_steps"] == 120
    assert "wall_seconds" not in summary  # summaries are reproducible byte-wise


def test_run_experiment_summary_is_reproducible(tmp_path):
    s = generate_synthetic_system(4, 2, seed=3)
    texts = []
    for d in ("a", "b"):
        cfg = ExperimentConfig(system=s, dt=0.08268, n_steps=100, ell=8,
                               out_dir=tmp_path / d, label="rep")
        run_experiment(cfg)
        texts.append((tmp_path / d / "rep_summary.json").read_bytes())
    assert texts[0] == texts[1]


def test_run_sweep_ell_axis_improves(tmp_path):
    s = generate_synthetic_system(4, 2, seed=3)
    base = ExperimentConfig(system=s, dt=0.08268, n_steps=400, ell=2,
                            out_dir=tmp_path, label="sw")
    rows = run_sweep(base, "ell", [2, 4, 8, 16])
    assert [r["ell"] for r in rows] == [2, 4, 8, 16]
    assert rows[-1]["rmse"] < rows[0]["rmse"] / 10
    table = (tmp_path / "sw_sweep.csv").read_text().splitlines()
    assert table[0] == ",".join(SWEEP_COLUMNS)
    assert len(table) == 5


def test_run_sweep_dt_axis_holds_final_time():
    s = generate_synthetic_system(4, 2, seed=3)
    base = ExperimentConfig(system=s, dt=0.08268, n_steps=200, ell=8)
    rows = run_sweep(base, "dt", [0.08268, 0.041340])
    assert rows[0]["dt"] * 200 == pytest.approx(rows[1]["dt"] * 400, rel=1e-12)
    assert rows[1]["total_memory"] == pytest.approx(8 * 0.041340)


def test_run_sweep_rejects_unknown_axis():
    s = generate_synthetic_system(4, 2, seed=3)
    with pytest.raises(ValidationError):
        run_sweep(ExperimentConfig(system=s), "amplitude", [1.0])


@pytest.mark.parametrize("axis, values", [
    ("ell", [2, -1]),          # not a DelayConfig
    ("ell", [2, 100]),         # a window longer than the run
    ("ell", [2, 30]),          # depth n_steps: no delay step to measure
    ("stride", [1, 0]),
    ("dt", [0.08268, 0.8268]), # 3 steps at the second dt, under the depth 8
])
def test_run_sweep_checks_every_point_before_the_first_runs(tmp_path, monkeypatch, axis,
                                                            values):
    from rdmdelay import harness
    truths = []
    monkeypatch.setattr(harness, "propagate_coefficients",
                        lambda *args: truths.append(args) or propagate_coefficients(*args))
    s = generate_synthetic_system(4, 2, seed=3)
    base = ExperimentConfig(system=s, n_steps=30, ell=8, out_dir=tmp_path / "out",
                            label="sw")
    with pytest.raises(ValidationError, match=f"{axis} = {values[1]:g}: "):
        run_sweep(base, axis, values)
    assert truths == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k_orbitals", [2, 4])
def test_validate_one_electron_report(k_orbitals):
    report = validate_one_electron(k_orbitals, n_steps=200, seed=0)
    assert report["max_deviation"] < 1e-10


def test_mz_compare_diagonal_both_match_direct():
    out = mz_compare(4, 2, 50, seed=1, diagonal=True)
    assert out["mz_max_error"] < 1e-8
    assert out["delay_max_error"] < 1e-8


def test_mz_compare_warns_once_for_its_rank_deficient_steps():
    # the diagonal unitary leaves M(t) (4 x 4 at ell 1) rank-deficient on
    # every one of the 49 delay steps; the run warns once for all of them
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = mz_compare(4, 2, 50, seed=1)
    assert out["delay_rank_deficient_steps"] == 49
    assert [w.category for w in caught] == [RuntimeWarning]
    assert str(caught[0].message).startswith(
        "49 of 49 delay steps were rank-deficient (rank below the 4 unknowns), "
        "the first step 2 with rank 2;")


@pytest.mark.filterwarnings("error")
def test_mz_compare_dense_delay_scheme_stays_exact():
    out = mz_compare(6, 3, 100, seed=2, diagonal=False)
    assert out["delay_max_error"] < 1e-8
    assert out["mz_max_error"] < 1e-8
