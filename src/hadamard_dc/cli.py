"""Command-line benchmark runner and invariant verifier.

Subcommands
-----------
rosenbrock        hyperbolic valley objective (internal/external tangency)
spd-academic      log-det polynomial objective on P(n) from a fixed start
spd-contrastive   weighted squared-distance contrast on P(n)
verify            run the geometry/solver invariant suites

Each benchmark accepts --algorithm {cr,b,both}, a base --seed, a number
of --runs, and emits CSV (default) or JSON rows with the columns
problem,algorithm,run,seed,k,inn,inn_per_k,fval,grad_norm,time_s.
Identical flags and seed reproduce every column except time_s.

Exit codes: 0 success, 1 verification failure, 2 usage error (a bad
flag or parameter value, reported before any solve), 3 solver stall
(partial output is still written).
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (family_params, records_to_csv, records_to_json,
                    run_benchmark, solver_configs)
from .rng import check_seeds
from .verify import run_verify


def _int_at_least(low):
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _add_common_run_flags(sub, default_runs):
    sub.add_argument("--algorithm", choices=("cr", "b", "both"),
                     default="both")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--runs", type=_int_at_least(1), default=default_runs)
    sub.add_argument("--eps", type=float, default=1e-4,
                     help="base stopping tolerance (scaled per run)")
    sub.add_argument("--max-outer", type=_int_at_least(0), default=20000)
    sub.add_argument("--output", default=None,
                     help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hadamard-dc",
        description="Difference-of-convex benchmark runner on Hadamard "
                    "manifolds")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    rosen = subs.add_parser("rosenbrock", help="hyperbolic valley benchmark")
    rosen.add_argument("--tangency", choices=("internal", "external"),
                       default="internal")
    rosen.add_argument("--a", type=float, default=1.0)
    rosen.add_argument("--b", type=float, default=None,
                       help="default 100 (internal) or 2 (external)")
    rosen.add_argument("--theta", type=float, default=1.0)
    rosen.add_argument("--n", type=int, default=2)
    _add_common_run_flags(rosen, default_runs=5)

    acad = subs.add_parser("spd-academic", help="log-det benchmark on P(n)")
    acad.add_argument("--n", type=int, default=4)
    _add_common_run_flags(acad, default_runs=1)

    contr = subs.add_parser("spd-contrastive",
                            help="contrastive benchmark on P(n)")
    contr.add_argument("--n", type=int, default=5)
    contr.add_argument("--m", type=int, default=5)
    contr.add_argument("--r", type=int, default=1)
    _add_common_run_flags(contr, default_runs=10)

    ver = subs.add_parser("verify", help="run the invariant suites")
    ver.add_argument("--seed", type=int, action="append", default=None,
                     help="may be given multiple times")
    ver.add_argument("--tol-scale", type=float, default=1.0,
                     help="multiply all tolerances (0 forces failure, "
                          "for negative-control testing)")
    return parser


def _check_output(path):
    """Raise ValueError where ``path``, unless None, cannot be created as
    a file: its directory is missing, or it is a directory itself."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise ValueError(f"output directory {folder} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    # bad values exit 2 before any suite or solve runs; later errors propagate
    try:
        if args.subcommand == "verify":
            run_verify(seeds=(), tol_scale=args.tol_scale)
            for seed in args.seed or ():
                check_seeds(seed)
        else:
            family_params(args.subcommand, args)
            solver_configs(args)
            check_seeds(args.seed, args.runs)
            _check_output(args.output)
    except ValueError as exc:
        print(f"{parser.prog} {args.subcommand}: error: {exc}",
              file=sys.stderr)
        return 2

    if args.subcommand == "verify":
        seeds = args.seed if args.seed else [0]
        results = run_verify(seeds=seeds, tol_scale=args.tol_scale)
        ok = True
        for res in results:
            status = "PASS" if res.passed else "FAIL"
            line = f"[{status}] {res.name}: max violation ratio " \
                   f"{res.max_violation:.3g}"
            if res.witness and not res.passed:
                line += f"  worst: {res.witness}"
            print(line)
            ok = ok and res.passed
        return 0 if ok else 1

    records, stall = run_benchmark(args.subcommand, args)
    text = records_to_csv(records) if args.format == "csv" \
        else records_to_json(records)
    _emit(text, args.output)
    if stall is not None:
        print(f"solver stall: {stall}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
