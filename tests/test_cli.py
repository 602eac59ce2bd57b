import json

import pytest

from rdmdelay.ci_model import load_system
from rdmdelay.cli import main
from rdmdelay.numkit import ValidationError


def _gen(tmp_path, nc=4, k=2, seed=3):
    path = tmp_path / "system.json"
    rc = main(["gen-system", "--nc", str(nc), "--k", str(k), "--seed", str(seed),
               "--out", str(path)])
    assert rc == 0
    return path


def test_gen_system_and_ground_truth(tmp_path, capsys):
    path = _gen(tmp_path)
    out = tmp_path / "gt"
    rc = main(["ground-truth", "--system", str(path), "--dt", "0.08268",
               "--steps", "50", "--out", str(out)])
    assert rc == 0
    assert any(out.glob("*.csv"))


def test_build_b_subcommand(tmp_path):
    path = _gen(tmp_path)
    out = tmp_path / "b"
    rc = main(["build-b", "--system", str(path), "--out", str(out)])
    assert rc == 0
    assert any(out.glob("*"))


def test_propagate_writes_summary(tmp_path):
    path = _gen(tmp_path)
    out = tmp_path / "prop"
    rc = main(["propagate", "--system", str(path), "--dt", "0.08268",
               "--steps", "150", "--ell", "8", "--out", str(out)])
    assert rc == 0
    summaries = list(out.glob("*_summary.json"))
    assert summaries
    summary = json.loads(summaries[0].read_text())
    assert summary["rmse"] < 1e-6


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_propagate_numerical_failure_exits_3(tmp_path, capsys, mode):
    # at r_tol 1 every singular value falls below the threshold, so the first
    # delay step's solve fails; the message names that step and its stage
    path = _gen(tmp_path)
    out = tmp_path / "prop"
    rc = main(["propagate", "--system", str(path), "--steps", "40", "--ell", "4",
               "--rtol", "1", "--mode", mode, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: step 5 (t = 0.33072): "
                          f"the {mode} solve stage failed: ")
    assert "all singular values fell below the threshold" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["constrained", "raw"])
def test_propagate_takes_a_one_configuration_system(tmp_path, mode):
    # N_C = 1: the trace alone fixes P, so the constrained solve has no column
    path = _gen(tmp_path, nc=1, k=1, seed=0)
    out = tmp_path / "prop"
    rc = main(["propagate", "--system", str(path), "--steps", "20", "--ell", "2",
               "--mode", mode, "--out", str(out)])
    assert rc == 0
    summary = json.loads(next(out.glob("*_summary.json")).read_text())
    assert summary["rmse"] < 1e-12


def test_sweep_subcommand(tmp_path):
    path = _gen(tmp_path)
    # the sweep table's ell column is 0, its k (stride) column 1
    for axis, column in (("ell", 0), ("stride", 1)):
        out = tmp_path / axis
        rc = main(["sweep", "--system", str(path), "--dt", "0.08268",
                   "--steps", "120", "--axis", axis, "--values", "4,8",
                   "--out", str(out)])
        assert rc == 0
        table = (out / "sweep_sweep.csv").read_text().splitlines()
        assert len(table) == 3
        assert [row.split(",")[column] for row in table[1:]] == ["4", "8"]
        assert (out / f"sweep_{axis}8_summary.json").exists()


@pytest.mark.parametrize("axis,values", [
    ("ell", "2,x"),        # not a number
    ("dt", "0"),
    ("dt", "nan"),
    ("stride", "1e400"),   # parses as inf
    ("ell", "inf"),
    ("stride", "2.5"),     # not an integer
])
def test_sweep_bad_values_are_validation_errors(tmp_path, capsys, axis, values):
    path = _gen(tmp_path)
    rc = main(["sweep", "--system", str(path), "--steps", "120", "--axis", axis,
               "--values", values, "--out", str(tmp_path / "sweep")])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_dt_too_small_for_any_trajectory_is_validation_error(tmp_path, capsys):
    # 1e-300 asks for about 1e302 steps, beyond numpy's array size limit; the
    # check must come before the first point (0.05) runs.  A dt whose
    # trajectory could be allocated, such as 1e-7 (about 100 GB), is not tried.
    path = _gen(tmp_path)
    rc = main(["sweep", "--system", str(path), "--axis", "dt", "--values", "0.05,1e-300",
               "--steps", "100", "--out", str(tmp_path / "sweep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "dt = 1e-300" in err and "n_steps" in err
    assert not (tmp_path / "sweep").exists()


def _assert_report_printed_and_written(args, out, capsys):
    """The command prints its JSON report, and with --out also writes it,
    making the file's directory."""
    assert main(args) == 0
    printed = capsys.readouterr().out
    assert main([*args, "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    assert json.loads(out.read_text()) == json.loads(printed)


def test_validate_one_electron_subcommand(tmp_path, capsys):
    _assert_report_printed_and_written(["validate-one-electron", "--k", "2", "--steps", "150"],
                                       tmp_path / "reports" / "one_electron.json", capsys)


def test_mz_compare_subcommand(tmp_path, capsys):
    _assert_report_printed_and_written(["mz-compare", "--dim", "6", "--m", "3", "--steps", "60"],
                                       tmp_path / "reports" / "mz.json", capsys)


@pytest.mark.parametrize("args, message", [
    (["--steps", "0"], "delay depth"),
    (["--dim", "8", "--steps", "2"], "delay depth"),
    (["--m", "0"], "m_reduced"),
    (["--dim", "8", "--m", "8"], "m_reduced"),
])
def test_mz_compare_bad_sizes_are_validation_errors(capsys, args, message):
    rc = main(["mz-compare", *args])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_missing_system_file_is_validation_error(tmp_path):
    rc = main(["ground-truth", "--system", str(tmp_path / "nope.json"),
               "--steps", "10", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_bad_system_content_is_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n_electrons\": 2}")
    rc = main(["build-b", "--system", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("key, value, message", [
    ("c_matrix", None, "missing key 'c_matrix'"),
    ("m_dip", None, "missing key 'm_dip'"),
    ("h0_diag", None, "missing key 'h0_diag'"),
    ("h0_diag", ["a", "b", "c", "d"], "could not convert string to float"),
    ("c_matrix", [[1.0]], "cannot unpack"),
])
def test_malformed_system_file_is_validation_error(tmp_path, capsys, key, value, message):
    path = _gen(tmp_path)
    doc = json.loads(path.read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"bad system file .*{message}"):
        load_system(path)
    rc = main(["build-b", "--system", str(path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [("cycles", float("inf")), ("amplitude", float("nan"))])
def test_non_finite_field_in_system_file_is_validation_error(tmp_path, capsys, key, value):
    path = _gen(tmp_path)
    doc = json.loads(path.read_text())
    doc["field"][key] = value  # written as Infinity / NaN, which json reads back
    path.write_text(json.dumps(doc))
    rc = main(["ground-truth", "--system", str(path), "--steps", "5",
               "--out", str(tmp_path / "gt")])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not (tmp_path / "gt").exists()


@pytest.mark.parametrize("cycles", [2.5, True])
def test_non_integer_cycles_in_system_file_is_validation_error(tmp_path, capsys, cycles):
    path = _gen(tmp_path)
    doc = json.loads(path.read_text())
    doc["field"]["cycles"] = cycles
    path.write_text(json.dumps(doc))
    rc = main(["ground-truth", "--system", str(path), "--steps", "5",
               "--out", str(tmp_path / "gt")])
    assert rc == 2
    assert "cycles" in capsys.readouterr().err
    assert not (tmp_path / "gt").exists()


def test_gen_system_bad_count_is_validation_error(tmp_path):
    rc = main(["gen-system", "--nc", "5", "--k", "2",
               "--out", str(tmp_path / "s.json")])
    assert rc == 2


@pytest.mark.parametrize("option, value", [("--amplitude", "nan"), ("--omega", "inf")])
def test_gen_system_non_finite_field_is_validation_error(tmp_path, capsys, option, value):
    out = tmp_path / "s.json"
    rc = main(["gen-system", "--nc", "4", "--k", "2", option, value, "--out", str(out)])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["propagate", "sweep"])
@pytest.mark.parametrize("rtol", ["nan", "inf"])
def test_non_finite_rtol_is_validation_error(tmp_path, capsys, command, rtol):
    path = _gen(tmp_path)
    args = [command, "--system", str(path), "--steps", "120", "--ell", "4",
            "--rtol", rtol, "--out", str(tmp_path / "out")]
    if command == "sweep":
        args += ["--axis", "ell", "--values", "2,4"]
    assert main(args) == 2
    assert "r_tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
