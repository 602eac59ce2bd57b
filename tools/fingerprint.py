"""Fingerprint rdmdelay's numerical outputs on a fixed list of configurations.

    python tools/fingerprint.py                       # digests of this tree
    python tools/fingerprint.py --against OTHER_TREE  # and compare with it
    python tools/fingerprint.py --only ell0-driven ell0-driven-raw

Each delay configuration runs `harness.run_experiment` with artifacts on, and
each Mori-Zwanzig one runs `harness.mz_compare`.  For every configuration it
prints the sha256 of the Q series (complex128 bytes), of the step CSV, of
`summary.json` and of the two MZ errors (`float.hex`); a field that does not
apply reads "-".  With `--against DIR` the same runs are repeated on the
package in DIR/src, for example a checkout of the parent commit, and each
configuration reads "equal" or "different"; a difference adds max |dQ|, the
steps whose effective rank changed, and the MZ errors.  A configuration
that raises reads "error: <type>: <message>" in place of its digests (or,
for the other tree, after "different: against:") and counts as different;
the other configurations still run.  The exit status is 1 if any
configuration differs or raises.

Each tree runs in a worker process started with one BLAS thread, set in its
environment before numpy is imported: rank-deficient results move with the
thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("q", "csv", "summary", "mz")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DT_COARSE = 0.08268
DT_FINE = 0.008268

# systems: (n_c, K, seed, h0_scale, field cycles), or "crit8", criterion 8's
# system with configuration 4 decoupled
CRIT5 = (4, 2, 3, 2.0, 5)
CRIT7 = (16, 4, 5, 10.0, 5)


def _delay(system, dt, n_steps, ell, stride=1, r_tol=1e-12, mode="constrained",
           zeros=False, a0_seed=None):
    return dict(kind="delay", system=system, dt=dt, n_steps=n_steps, ell=ell,
                stride=stride, r_tol=r_tol, mode=mode, zeros=zeros, a0_seed=a0_seed)


def _mz(dim, steps, diagonal, truncate=False):
    return dict(kind="mz", dim=dim, steps=steps, diagonal=diagonal, truncate=truncate)


CONFIGS = {
    # the benchmark's delay workloads (criterion 7 draws a0 from seed 11)
    "nc4-ell20": _delay((4, 2, 3, 2.0, 1), DT_COARSE, 400, 20),
    "nc4-ell160": _delay(CRIT5, DT_FINE, 200, 160),
    "nc16-ell32-k8": _delay(CRIT7, DT_FINE, 264, 32, 8, 1e-6, a0_seed=11),
    # criterion 5 past its field cutoff (step 423), in both modes
    "crit5": _delay(CRIT5, DT_COARSE, 520, 20),
    "crit5-raw": _delay(CRIT5, DT_COARSE, 520, 20, mode="raw"),
    # criterion 8: row/column 3 declared zero, and the rank-deficient raw run
    "crit8-zero3": _delay("crit8", DT_COARSE, 300, 8, zeros=True),
    "crit8-zero3-raw": _delay("crit8", DT_COARSE, 300, 8, mode="raw"),
    "crit8-ell3": _delay(CRIT5, DT_FINE, 2000, 3),
    "crit8-ell3-raw": _delay(CRIT5, DT_FINE, 2000, 3, mode="raw"),
    # strides on criterion 5's system
    "ell8-k2-raw": _delay(CRIT5, DT_COARSE, 400, 8, 2, mode="raw"),
    "ell4-k3": _delay(CRIT5, DT_COARSE, 400, 4, 3),
    # criterion 7's strides on short horizons; stride 1 takes the SVD path
    **{f"crit7-k{k}": _delay(CRIT7, DT_FINE, 32 * k + 16, 32, k, 1e-6, a0_seed=11)
       for k in (1, 2, 4)},
    "nc16-ell8-k4": _delay(CRIT7, DT_FINE, 92, 8, 4, a0_seed=11),
    # the ell-sweep points of criteria 6 and 9
    **{f"sweep-coarse-ell{ell}": _delay(CRIT5, DT_COARSE, 2000, ell) for ell in (2, 4, 8, 16)},
    **{f"sweep-fine-ell{ell}": _delay(CRIT5, DT_FINE, 20000, ell) for ell in (20, 40, 80, 160)},
    # one configuration: the trace fixes P, so the constrained solve has no column
    "nc1": _delay((1, 1, 0, 2.0, 5), DT_COARSE, 100, 2),
    "nc1-raw": _delay((1, 1, 0, 2.0, 5), DT_COARSE, 100, 2, mode="raw"),
    # ell 0 with the field on at every step
    "ell0-driven": _delay(CRIT5, DT_COARSE, 300, 0),
    "ell0-driven-raw": _delay(CRIT5, DT_COARSE, 300, 0, mode="raw"),
    # criterion 10's mz_compare cases, and the benchmark's mz-dense size
    "mz-diag": _mz(8, 200, True),
    "mz-dense": _mz(8, 200, False),
    "mz-dense-truncated": _mz(8, 200, False, truncate=True),
    "mz-dense16": _mz(16, 200, False),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- worker: runs in its own process, on the package of one tree ----------------


def _system(spec):
    import numpy as np

    from rdmdelay import CiSystem, FieldProfile, generate_synthetic_system, one_electron_index_map

    if spec != "crit8":
        n_c, k, seed, h0_scale, cycles = spec
        return generate_synthetic_system(n_c, k, seed=seed, h0_scale=h0_scale,
                                         field=FieldProfile(0.5, 0.9, cycles))
    rng = np.random.default_rng(2)
    h0 = np.sort(rng.standard_normal(4) * 2.0)
    m_dip = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m_dip = m_dip + m_dip.conj().T
    m_dip[3, :] = m_dip[:, 3] = 0.0
    return CiSystem(n_electrons=2, n_orbitals=2, c_matrix=np.eye(4, dtype=complex),
                    index_map=one_electron_index_map(2), h0_diag=h0, m_dip=m_dip,
                    field=FieldProfile(amplitude=0.5, omega=0.9, cycles=5))


def _run_delay(name, cfg, out: Path, truths: dict):
    import numpy as np

    from rdmdelay import ExperimentConfig, build_B, harness, propagate_coefficients, \
        reduced_density_series

    key = (cfg["system"], cfg["dt"], cfg["n_steps"], cfg["a0_seed"])
    if key not in truths:
        system = _system(cfg["system"])
        a0 = None
        if cfg["a0_seed"] is not None:
            rng = np.random.default_rng(cfg["a0_seed"])
            a0 = rng.standard_normal(system.n_configs) + 1j * rng.standard_normal(system.n_configs)
            a0 /= np.linalg.norm(a0)
        b = build_B(system)
        run = propagate_coefficients(system, cfg["dt"], cfg["n_steps"], a0=a0)
        truths[key] = system, b, reduced_density_series(run, b)
    system, b, q_true = truths[key]
    zeros = frozenset({(3, j) for j in range(4)}) if cfg["zeros"] else frozenset()
    # run_experiment looks run_delay_propagation up on harness; keep its Q
    captured = {}
    original = harness.run_delay_propagation

    def capture(*args, **kwargs):
        captured["q"], captured["records"] = result = original(*args, **kwargs)
        return result

    harness.run_delay_propagation = capture
    try:
        harness.run_experiment(ExperimentConfig(
            system=system, dt=cfg["dt"], n_steps=cfg["n_steps"], ell=cfg["ell"],
            stride=cfg["stride"], r_tol=cfg["r_tol"], mode=cfg["mode"], zero_pairs=zeros,
            out_dir=out, label=name), b=b, q_true=q_true)
    finally:
        harness.run_delay_propagation = original
    q = np.ascontiguousarray(captured["q"], dtype=complex)
    ranks = np.array([r.effective_rank for r in captured["records"]])
    np.savez(out / f"{name}.npz", q=q, ranks=ranks)
    return {"q": _digest(q.tobytes()),
            "csv": _digest((out / f"{name}_steps.csv").read_bytes()),
            "summary": _digest((out / f"{name}_summary.json").read_bytes()), "mz": "-"}


def _run_mz(name, cfg, out: Path):
    import numpy as np

    from rdmdelay import mz_compare

    res = mz_compare(cfg["dim"], 4, cfg["steps"], seed=0, diagonal=cfg["diagonal"],
                     truncate_memory_half=cfg["truncate"])
    errors = np.array([res["mz_max_error"], res["delay_max_error"]])
    np.savez(out / f"{name}.npz", errors=errors)
    return {"q": "-", "csv": "-", "summary": "-",
            "mz": _digest(" ".join(float(e).hex() for e in errors).encode())}


def _worker(src: str, out: str, names: list[str]):
    sys.path.insert(0, src)
    out, truths, digests = Path(out), {}, {}
    # propagate_y warns on every rank-deficient step; nothing here reads warnings
    warnings.simplefilter("ignore", RuntimeWarning)
    for name in names:
        cfg = CONFIGS[name]
        try:
            digests[name] = (_run_mz(name, cfg, out) if cfg["kind"] == "mz"
                             else _run_delay(name, cfg, out, truths))
        except Exception as exc:  # reported as this configuration's result
            message = " ".join(str(exc).split())
            digests[name] = {"error": f"{type(exc).__name__}: {message}"}
    json.dump(digests, sys.stdout)


# -- driver ---------------------------------------------------------------------


def _start(tree: Path, out: Path, names: list[str]) -> subprocess.Popen:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree / "src"),
         str(out), *names], env=env, stdout=subprocess.PIPE, text=True)


def _collect(proc: subprocess.Popen, tree: Path) -> dict:
    stdout, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"fingerprint: the run on {tree} failed (exit {proc.returncode})")
    return json.loads(stdout)


def _fields(digests: dict) -> str:
    if "error" in digests:
        return f"error: {digests['error']}"
    return "  ".join(f"{f}={digests[f]}" for f in FIELDS)


def describe_difference(name: str, ours: Path, theirs: Path) -> str:
    """max |dQ| and the changed ranks of a delay configuration, or the two
    pairs of MZ errors, read from the workers' .npz files."""
    import numpy as np

    with np.load(ours / f"{name}.npz") as a, np.load(theirs / f"{name}.npz") as b:
        if "errors" in a:
            return (f"mz errors {a['errors'].tolist()} against {b['errors'].tolist()}")
        if a["q"].shape != b["q"].shape:
            return f"Q shape {a['q'].shape} against {b['q'].shape}"
        with np.errstate(invalid="ignore"):
            dq = float(np.nan_to_num(np.abs(a["q"] - b["q"]), nan=np.inf).max())
        changed = np.flatnonzero(a["ranks"] != b["ranks"])
        ranks = ", ".join(f"record {i}: {b['ranks'][i]} -> {a['ranks'][i]}"
                          for i in changed[:5])
        more = f" (+{len(changed) - 5} more)" if len(changed) > 5 else ""
        return (f"max |dQ| = {dq:.3g}; rank changed on {len(changed)} steps"
                + (f": {ranks}{more}" if len(changed) else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another tree to compare with; its package is DIR/src")
    parser.add_argument("--only", nargs="+", choices=list(CONFIGS), metavar="NAME",
                        help="run only these configurations (default: all)")
    parser.add_argument("--worker", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker[0], args.worker[1], args.worker[2:])
        return 0
    names = args.only or list(CONFIGS)
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "this"), Path(tmp, "against")
        ours.mkdir()
        runs = [_start(ROOT, ours, names)]
        if args.against is not None:
            theirs.mkdir()
            runs.append(_start(args.against.resolve(), theirs, names))
        digests = [_collect(proc, tree) for proc, tree in zip(runs, (ROOT, args.against))]
        differ = 0
        for name in names:
            mine = digests[0][name]
            line = f"{name:22s} " + _fields(mine)
            same = "error" not in mine
            if len(digests) == 2:
                other = digests[1][name]
                same = same and mine == other
                if "error" in other:
                    line += "  different: against: " + _fields(other)
                elif same:
                    line += "  equal"
                else:
                    line += "  different" + ("" if "error" in mine else
                                             ": " + describe_difference(name, ours, theirs))
            differ += not same
            print(line, flush=True)
    if args.against is not None:
        print(f"{len(names) - differ} of {len(names)} configurations equal")
    return int(differ > 0)


if __name__ == "__main__":
    sys.exit(main())
