"""Smoke test of `tools/fingerprint.py`: one short configuration, fingerprinted
on this tree and compared against the same tree."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_fingerprint_of_one_configuration_equals_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--only", "ell0-driven-raw",
         "--against", str(ROOT)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    line, total = done.stdout.splitlines()
    digests = dict(re.findall(r"(\w+)=([0-9a-f]{64}|-)", line))
    assert line.startswith("ell0-driven-raw ") and line.endswith("  equal")
    assert list(digests) == ["q", "csv", "summary", "mz"]
    assert all(len(digests[f]) == 64 for f in ("q", "csv", "summary")) and digests["mz"] == "-"
    assert total == "1 of 1 configurations equal"


def test_generic_engine_configurations_digest_y_and_the_step_rows():
    names = ["y-copies-k3", "y-switch"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--only", *names,
         "--against", str(ROOT)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *lines, total = done.stdout.splitlines()
    for line, name in zip(lines, names, strict=True):
        digests = dict(re.findall(r"(\w+)=([0-9a-f]{64}|-)", line))
        assert line.startswith(name + " ") and line.endswith("  equal")
        assert len(digests["q"]) == len(digests["csv"]) == 64
        assert digests["summary"] == digests["mz"] == "-"
    assert total == "2 of 2 configurations equal"


def test_a_difference_reports_max_dq_and_the_changed_ranks(tmp_path):
    import importlib.util

    import numpy as np

    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    ours.mkdir(), theirs.mkdir()
    q = np.zeros((4, 2, 2), dtype=complex)
    q[0, 0, 0] = 4.0
    np.savez(theirs / "run.npz", q=q, ranks=np.array([15, 15, 15]))
    q[3, 1, 0] = 2e-9j
    np.savez(ours / "run.npz", q=q, ranks=np.array([15, 14, 15]))
    assert (fingerprint.describe_difference("run", ours, theirs)
            == "max |dQ| = 2e-09 (5e-10 of max |Q|); rank changed on 1 steps: "
               "record 1: 15 -> 14")


def test_a_generic_engine_difference_reports_max_dy(tmp_path):
    # a "y-..." configuration's worker saves its y series, named as such
    import importlib.util

    import numpy as np

    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    ours.mkdir(), theirs.mkdir()
    fingerprint._run_y("y-ell0", fingerprint.CONFIGS["y-ell0"], theirs)
    with np.load(theirs / "y-ell0.npz") as run:
        assert sorted(run.files) == ["ranks", "y"]
        y, ranks = run["y"], run["ranks"]
    assert y.shape == (60, 2)
    scale = float(np.abs(y).max())
    y[7, 1] += 3e-12 * scale
    np.savez(ours / "y-ell0.npz", y=y, ranks=ranks)
    line = fingerprint.describe_difference("y-ell0", ours, theirs)
    diff, rel = re.fullmatch(r"max \|dy\| = (\S+) \((\S+) of max \|y\|\); "
                             r"rank changed on 0 steps", line).groups()
    assert float(diff) == pytest.approx(3e-12 * scale, rel=1e-2)
    assert float(rel) == pytest.approx(3e-12, rel=1e-2)


def _broken_tree(tmp_path):
    """A tree whose package raises on import, with a copy of the tool."""
    tree = tmp_path / "broken"
    (tree / "src" / "rdmdelay").mkdir(parents=True)
    (tree / "src" / "rdmdelay" / "__init__.py").write_text(
        'raise ImportError("broken\\non purpose")\n')
    (tree / "tools").mkdir()
    (tree / "tools" / "fingerprint.py").write_text(
        (ROOT / "tools" / "fingerprint.py").read_text())
    return tree


def test_a_configuration_that_raises_is_reported_and_the_rest_still_run(tmp_path):
    broken = _broken_tree(tmp_path)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--only", "nc1",
         "ell0-driven-raw", "--against", str(broken)], capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 1, done.stderr
    nc1, ell0, total = done.stdout.splitlines()
    for line, name in ((nc1, "nc1 "), (ell0, "ell0-driven-raw ")):
        assert line.startswith(name) and re.search(r"csv=[0-9a-f]{64}", line)
        assert line.endswith("  different: against: error: ImportError: broken on purpose")
    assert total == "0 of 2 configurations equal"
    # the same error on this tree's side, with no tree to compare against
    done = subprocess.run(
        [sys.executable, str(broken / "tools" / "fingerprint.py"), "--only", "nc1"],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stdout.split() == ["nc1", "error:", "ImportError:", "broken", "on", "purpose"]
