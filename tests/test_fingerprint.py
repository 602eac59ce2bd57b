"""Smoke test of `tools/fingerprint.py`: one short configuration, fingerprinted
on this tree and compared against the same tree."""

import re
import subprocess
import sys
from pathlib import Path

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
    np.savez(theirs / "run.npz", q=q, ranks=np.array([15, 15, 15]))
    q[3, 1, 0] = 2e-9j
    np.savez(ours / "run.npz", q=q, ranks=np.array([15, 14, 15]))
    assert (fingerprint.describe_difference("run", ours, theirs)
            == "max |dQ| = 2e-09; rank changed on 1 steps: record 1: 15 -> 14")


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
