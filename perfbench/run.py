"""rdmdelay benchmark: wall time per delay step, set-up and solve, per workload.

Run from the repository root.  One workload, one process:

    python3 perfbench/run.py --workload nc4-ell20 --seed 11 --seconds 30 --trace 0

prints an environment fingerprint line, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics.  The exit code is 0 only if every operation passed its
correctness gate.

Every workload, each in its own process, with a table of every metric:

    python3 perfbench/run.py --all [--runs 10] [--out perfbench/baseline.json]

Workloads, metrics and gates are explained in perfbench/NOTE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# BLAS runs on a fixed thread count, the same on every machine, so that a run
# measures the program and not the core count; one thread is the plain
# single-threaded baseline.  It must be set before numpy is imported.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc,
            "blas_threads": BLAS_THREADS}


def run_one(spec: dict, name: str, seed: int | None, seconds: float, trace: bool) -> int:
    from measure import measure, measure_traced
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    seed = w.default_seed if seed is None else seed
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics, attempted, failed = (measure_traced if trace else measure)(w, seed, seconds)
    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        return _fail(f"BENCHMARK.json names metrics the benchmark does not measure: {unknown}")
    print(json.dumps({"fingerprint": fingerprint(), "workload": name, "seed": seed,
                      "seconds": seconds, "trace": int(trace)}))
    print(f"{name} seed {seed}: failed_frac {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0 if failed == 0 else 1


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(spec: dict, runs: int, seconds: float, out: Path | None) -> int:
    """Every workload: `runs` untraced runs on successive seeds, one traced run."""
    from workloads import WORKLOADS

    results, ok = {}, True
    for entry in spec["workloads"]:
        name = entry["name"]
        first = WORKLOADS[name].default_seed
        jobs = [(first + i, 0) for i in range(runs)] + [(first, 1)]
        results[name] = []
        for seed, trace in jobs:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} seed {seed} trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                ok = False
                continue
            head, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            results[name].append({"seed": seed, "trace": trace, **result,
                                  "fingerprint": head["fingerprint"]})
    summary = {}
    print(f"{'workload':16} {'metric':44} {'unit':6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, rows in results.items():
        summary[name] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            for m in spec[kind]:
                values = [r["metrics"][m["name"]]["value"] for r in rows
                          if r["trace"] == trace]
                if not values:
                    continue
                q1, med, q3 = _quartiles(values)
                spread = (q3 - q1) / med if med else 0.0
                summary[name][m["name"]] = {"unit": m["unit"], "median": med,
                                            "q1": q1, "q3": q3, "runs": len(values)}
                print(f"{name:16} {m['name']:44} {m['unit']:6} {med:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {spread:8.3f}")
    if out is not None:
        out.write_text(json.dumps({"seconds": seconds, "runs_per_workload": runs,
                                   "summary": summary, "results": results},
                                  indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "rdmdelay" / "__init__.py").is_file() or not spec_path.is_file():
        return _fail(f"run from a checkout of rdmdelay: {SRC / 'rdmdelay'} "
                     f"or {spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's, see NOTE.md)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --all: untraced runs per workload, on successive seeds")
    parser.add_argument("--out", type=Path, help="with --all: write the results here")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be > 0 and --runs >= 1")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import rdmdelay
    if SRC not in Path(rdmdelay.__file__).resolve().parents:
        return _fail(f"imported rdmdelay from {rdmdelay.__file__}, not from {SRC}")
    from workloads import WORKLOADS
    if sorted(WORKLOADS) != sorted(names):
        return _fail(f"BENCHMARK.json workloads {names} differ from {sorted(WORKLOADS)}")

    if args.all:
        return run_all(spec, args.runs, args.seconds, args.out)
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
