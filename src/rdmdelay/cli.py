"""Command-line interface.

Subcommands: ground-truth, build-b, propagate, sweep, validate-one-electron,
mz-compare, gen-system.  Exit codes: 0 success, 2 validation error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (
    ExperimentConfig,
    FieldProfile,
    NumericalError,
    ValidationError,
    build_B,
    generate_synthetic_system,
    load_system,
    mz_compare,
    propagate_coefficients,
    reduced_density_series,
    run_experiment,
    run_sweep,
    save_system,
    validate_one_electron,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _add_common(p, system=True):
    if system:
        p.add_argument("--system", required=True, help="system definition JSON")
    p.add_argument("--dt", type=float, default=0.08268, help="time step (a.u.)")
    p.add_argument("--steps", type=int, default=2000, help="number of steps")
    p.add_argument("--out", default="out", help="output directory")


def _add_delay(p):
    p.add_argument("--ell", type=int, default=8, help="memory depth (blocks)")
    p.add_argument("--stride", type=int, default=1, help="memory stride k")
    p.add_argument("--rtol", type=float, default=1e-12,
                   help="pseudoinverse relative tolerance")
    p.add_argument("--mode", choices=("constrained", "raw"), default="constrained")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rdmdelay",
        description="Delay-equation propagation of TDCI 1-electron reduced "
                    "density matrices")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground-truth", help="reference TDCI propagation")
    _add_common(p)

    p = sub.add_parser("build-b", help="build and export the reduction tensor")
    p.add_argument("--system", required=True)
    p.add_argument("--out", default="out")

    p = sub.add_parser("propagate", help="delay propagation of the 1RDM")
    _add_common(p)
    _add_delay(p)

    p = sub.add_parser("sweep", help="sweep ell, stride, or dt")
    _add_common(p)
    _add_delay(p)
    p.add_argument("--axis", choices=("ell", "stride", "dt"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")

    p = sub.add_parser("validate-one-electron",
                       help="one-electron exactness suite")
    p.add_argument("--k", type=int, choices=(2, 4), default=2)
    p.add_argument("--dt", type=float, default=0.008268)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("mz-compare",
                       help="memory-summed vs delay propagation comparison")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dense", action="store_true",
                   help="dense random unitary instead of diagonal")
    p.add_argument("--out", default=None)

    p = sub.add_parser("gen-system", help="generate a synthetic system file")
    p.add_argument("--nc", type=int, required=True, help="number of determinants")
    p.add_argument("--k", type=int, required=True, help="number of spatial orbitals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=0.5)
    p.add_argument("--omega", type=float, default=0.9)
    p.add_argument("--cycles", type=int, default=5)
    p.add_argument("--zero-diag-dipole", action="store_true")
    p.add_argument("--out", required=True, help="output JSON path")
    return ap


def _cmd_ground_truth(args) -> int:
    system = load_system(args.system)
    b = build_B(system)
    run = propagate_coefficients(system, args.dt, args.steps)
    q = reduced_density_series(run, b)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n_c = system.n_configs
    with open(out / "coefficients.csv", "w") as fh:
        fh.write("t," + ",".join(f"re_a{j + 1},im_a{j + 1}" for j in range(n_c)) + "\n")
        for j, t in enumerate(run.times()):
            row = [f"{t:.17g}"]
            for z in run.coefficients[j]:
                row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
            fh.write(",".join(row) + "\n")
    np.save(out / "q_true.npy", q)
    print(f"wrote {out / 'coefficients.csv'} and {out / 'q_true.npy'} "
          f"({args.steps} steps, final trace {np.trace(q[-1]).real:.12f})")
    return EXIT_OK


def _cmd_build_b(args) -> int:
    system = load_system(args.system)
    b = build_B(system)
    b.check_invariants()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "b_tensor.npy", b.data)
    np.savetxt(out / "b_matricized.csv", b.matricized.view(float), delimiter=",")
    print(f"B tensor {b.data.shape} written to {out}; trace contraction OK")
    return EXIT_OK


def _cmd_propagate(args) -> int:
    cfg = ExperimentConfig(
        system=load_system(args.system), dt=args.dt, n_steps=args.steps,
        ell=args.ell, stride=args.stride, r_tol=args.rtol, mode=args.mode,
        out_dir=Path(args.out), label="propagate")
    report = run_experiment(cfg)
    print(json.dumps(report.summary(), indent=1, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ValidationError(
            f"--values must be comma-separated numbers, got {args.values!r}") from None
    cfg = ExperimentConfig(
        system=load_system(args.system), dt=args.dt, n_steps=args.steps,
        ell=args.ell, stride=args.stride, r_tol=args.rtol, mode=args.mode,
        out_dir=Path(args.out), label="sweep")
    rows = run_sweep(cfg, args.axis, values)
    for row in rows:
        print(json.dumps(row, sort_keys=True))
    return EXIT_OK


def _cmd_validate_one_electron(args) -> int:
    report = validate_one_electron(args.k, dt=args.dt, n_steps=args.steps,
                                   seed=args.seed)
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    if report["max_deviation"] > 1e-10:
        print(f"FAIL: max deviation {report['max_deviation']:.3e} exceeds 1e-10",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_mz_compare(args) -> int:
    report = mz_compare(args.dim, args.m, args.steps, seed=args.seed,
                        diagonal=not args.dense)
    text = json.dumps(report, indent=1, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text + "\n")
    return EXIT_OK


def _cmd_gen_system(args) -> int:
    system = generate_synthetic_system(
        args.nc, args.k, args.seed, zero_diag_dipole=args.zero_diag_dipole,
        field=FieldProfile(args.amplitude, args.omega, args.cycles))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_system(system, args.out)
    print(f"wrote {args.out} (N_C={args.nc}, K={args.k}, seed={args.seed})")
    return EXIT_OK


_COMMANDS = {
    "ground-truth": _cmd_ground_truth,
    "build-b": _cmd_build_b,
    "propagate": _cmd_propagate,
    "sweep": _cmd_sweep,
    "validate-one-electron": _cmd_validate_one_electron,
    "mz-compare": _cmd_mz_compare,
    "gen-system": _cmd_gen_system,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
