"""Benchmark harness: seeded runs, CSV/JSON emission.

A run record mirrors the reporting columns of the benchmark tables:
outer iterations k, total inner iterations, their ratio, the final
objective value, the final (scaled) gradient norm, and wall time.  All
columns except time_s are deterministic functions of (problem flags,
seed).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .dc import SolverConfig, run_dca
from .errors import StalledInnerSolveError
from .problems import (AcademicParams, ContrastiveParams, RosenbrockParams,
                       academic_problem, contrastive_problem, random_start,
                       rosenbrock_problem)
from .rng import check_seeds, make_rng, run_seed

CSV_COLUMNS = ("problem", "algorithm", "run", "seed", "k", "inn",
               "inn_per_k", "fval", "grad_norm", "time_s")

ALGORITHM_CODES = {"cr": "cr_dca", "b": "b_dca"}


@dataclass(frozen=True)
class RunRecord:
    problem: str
    algorithm: str
    run: int
    seed: int
    k: int
    inn: int
    inn_per_k: float
    fval: float
    grad_norm: float
    time_s: float


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def records_to_csv(records):
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        d = asdict(rec)
        lines.append(",".join(_fmt(d[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def records_to_json(records):
    return json.dumps([asdict(r) for r in records], indent=2) + "\n"


def record_from_trace(trace, problem_id, algorithm_code, run_index, seed):
    k = trace.k
    inn = trace.inner_total
    return RunRecord(
        problem=problem_id, algorithm=algorithm_code, run=run_index,
        seed=seed, k=k, inn=inn, inn_per_k=(inn / k if k > 0 else 0.0),
        fval=trace.fval, grad_norm=trace.grad_norm, time_s=trace.time_s)


def family_params(subcommand, args):
    """Parameter object of the benchmark family selected by the CLI flags;
    raises ValueError on a bad parameter value."""
    if subcommand == "rosenbrock":
        b_default = 100.0 if args.tangency == "internal" else 2.0
        return RosenbrockParams(
            a=args.a, b=(args.b if args.b is not None else b_default),
            theta=args.theta, tangency=args.tangency, n=args.n)
    if subcommand == "spd-academic":
        return AcademicParams(n=args.n)
    if subcommand == "spd-contrastive":
        return ContrastiveParams(n=args.n, m=args.m, r=args.r)
    raise ValueError(f"unknown benchmark {subcommand!r}")


def solver_configs(args):
    """SolverConfig per requested algorithm code, in run order; raises
    ValueError on a bad tolerance."""
    codes = ["cr", "b"] if args.algorithm == "both" else [args.algorithm]
    return {code: SolverConfig(eps_base=args.eps, max_outer=args.max_outer,
                               algorithm=ALGORITHM_CODES[code])
            for code in codes}


def make_problem(subcommand, args, rng):
    """Instantiate the benchmark family selected by the CLI flags."""
    params = family_params(subcommand, args)
    if subcommand == "rosenbrock":
        return rosenbrock_problem(params)
    if subcommand == "spd-academic":
        return academic_problem(params)
    return contrastive_problem(params, rng)


def run_benchmark(subcommand, args):
    """Run the requested algorithm(s) over seeded starts.

    Returns (records, stall_error_or_None), sorted also when a stall ends
    the runs.  Per run index, a fresh problem instance (where references
    are sampled) and a starting point are drawn from the derived per-run
    seed; both algorithms then use the identical start point and
    tolerances.  Raises ValueError before any solve unless every run seed
    is a Philox key.
    """
    check_seeds(args.seed, args.runs)
    configs = solver_configs(args)
    records = []
    stall = None
    for run_index in range(args.runs):
        seed = run_seed(args.seed, run_index)
        rng = make_rng(seed)
        problem = make_problem(subcommand, args, rng)
        start = random_start(problem, rng)
        for code, cfg in configs.items():
            try:
                trace = run_dca(problem, start, cfg)
            except StalledInnerSolveError as exc:
                partial = getattr(exc, "trace", None)
                if partial is not None:
                    records.append(record_from_trace(
                        partial, problem.name, code, run_index, seed))
                stall = exc
                break
            records.append(record_from_trace(
                trace, problem.name, code, run_index, seed))
        if stall is not None:
            break
    records.sort(key=lambda r: (r.problem, r.algorithm, r.run))
    return records, stall
