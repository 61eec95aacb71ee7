"""Seeded benchmark of the hadamard_dc package.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload valley --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from stats import count_differing_rows, percentile, tail_percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
# set before numpy loads: OpenBLAS sizes its thread pool at import
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 4        # fresh interpreters timed on top of this one's set-up
# median of workloads.calibrate() on the reference machine (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4, OpenBLAS 0.3.31); step times are
# reported at that speed, scaled by CAL_REFERENCE_S over the run's median
CAL_REFERENCE_S = 4.5e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time")
    return parser.parse_args(argv)


def environment(args):
    import numpy
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "cpu": cpu,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"]}


def setup_probes(args):
    """Set-up times of fresh interpreters, one after another, each scaled
    to the reference speed by its own calibration."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["setup_s"] * CAL_REFERENCE_S / probe["cal_s"])
    return times


def add_check(total, workload, result):
    """Check one pass into the running CheckResult ``total``; the first
    few operations that fail for the first time go to stderr."""
    for msg in total.merge(workload.check(result))[:5]:
        print(f"FAILED {msg}", file=sys.stderr)


def checked_passes(workload, seconds):
    """Passes until one more would end after ``seconds``; at least one.
    Each pass is checked when it ends, outside its timing; what is not
    needed afterwards is dropped, so that memory does not grow with the
    number of passes.  Returns (passes, summed check)."""
    from workloads import CheckResult
    passes, total = [], CheckResult()
    t0 = time.perf_counter()
    while True:
        p = workload.run_pass()
        add_check(total, workload, p)
        p.outputs = p.call_s = None
        if passes:                  # only the first pass's traces are read
            p.starts = []
        passes.append(p)
        longest = max(q.wall_s for q in passes)
        if time.perf_counter() - t0 + longest > seconds:
            return passes, total


def reference_diff(workload, passes):
    """(differing rows in the worst pass, reference rows) for solver
    workloads with committed rows for this seed, else None."""
    path = REFERENCE / f"{workload.name}.csv"
    if not hasattr(workload, "reference_rows") or not path.is_file():
        return None
    ref = workload.reference_rows(path.read_text().splitlines())
    if len(ref) == 1:
        return None
    worst = max(count_differing_rows(workload.reference_rows(p.csv_rows), ref)
                for p in passes)
    return worst, len(ref) - 1


def at_reference_speed(p):
    """(CPU seconds per step, step times) of pass ``p`` at the reference
    speed: each job's times scaled by CAL_REFERENCE_S over the calibration
    sampled right after that job, so that a slow spell of the machine is
    corrected where it happened.  A pass that completed no step (every
    run stalled at once) counts as one step, so that the result and its
    failures are still printed."""
    scale = [CAL_REFERENCE_S / job.cal_s for job in p.jobs]
    steps = [s * f for job, f in zip(p.jobs, scale) for s in job.step_s]
    cpu = sum(job.cpu_s * f for job, f in zip(p.jobs, scale))
    return cpu / max(1, len(steps)), steps


def end_to_end(args, workload, own_setup):
    probes = setup_probes(args)
    passes, check = checked_passes(workload, args.seconds)
    scaled = [at_reference_speed(p) for p in passes]
    steps = [s for _, st in scaled for s in st]
    cpu_ms_per_step = 1e3 * statistics.median(c for c, _ in scaled)
    cal = statistics.median(job.cal_s for p in passes for job in p.jobs)
    setups = [own_setup * CAL_REFERENCE_S / cal] + probes
    values = {
        "setup_s": statistics.median(setups),
        "cpu_ms_per_step": cpu_ms_per_step,
        "step_ms_p50": 1e3 * percentile(steps, 50) if steps
        else cpu_ms_per_step,
        "ok_ratio": (check.attempted - check.failed) / check.attempted,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_cpu = statistics.median(p.cpu_s / max(1, len(p.step_s))
                                for p in passes)
    print(f"# {len(passes)} passes in {sum(p.wall_s for p in passes):.2f} s, "
          f"{len(steps)} steps; {check.attempted} operations per pass, "
          f"{check.failed} failed, {check.wrong} of them with wrong output; "
          f"set-up median of {len(setups)}")
    print(f"# machine speed: calibration median {1e3 * cal:.3f} ms against "
          f"{1e3 * CAL_REFERENCE_S:.3f} ms; unscaled CPU time "
          f"{1e3 * raw_cpu:.4g} ms per step")
    # printed, not gated: on a shared machine the tail follows the
    # interference from other tenants more than the program
    try:
        p90 = f"{1e3 * tail_percentile(steps, 90):.6g} ms"
    except ValueError as exc:
        p90 = f"not reported ({exc})"
    print(f"# step_ms_p90 {p90} of {len(steps)} steps (scaled; not a gated "
          "metric)")
    if passes[0].traces:
        first = passes[0]
        count, worst = workload.uncertified(first)
        print(f"# per pass: outer_iters {sum(t.k for t in first.traces)}, "
              f"inner_iters {sum(t.inner_total for t in first.traces)}, "
              f"{count} of {len(first.traces)} runs stopped at a fixed point "
              f"above eps (largest gradient/eps {worst:.3g})")
    diff = reference_diff(workload, passes)
    print("# reference rows: " + (f"{diff[0]} of {diff[1]} differ"
                                  if diff else "none for this seed"))
    return values, check


def per_layer(workload, tracer, base, traced):
    """Layer figures: spans from the traced pass, per-call kernel times
    and solve times from the untraced one."""
    values = dict.fromkeys((name for name, _, _ in metrics.PER_LAYER), 0.0)
    for geom in metrics.TRACED_GEOMETRIES:
        for op in metrics.GEOMETRY_OPS:
            span = f"geometry.{geom}.{op}"
            values[f"{span}.calls"] = tracer.calls(span)
            values[f"{span}.self_s"] = tracer.self_s(span)
            # not a metric: the per-layer list is limited to 128 names
            if values[f"{span}.calls"]:
                print(f"# {span}.us_per_call "
                      f"{1e6 * tracer.self_s(span) / tracer.calls(span):.6g}"
                      " us")
    for op in metrics.LAPACK_OPS:
        values[f"lapack.{op}.calls"] = tracer.calls(f"lapack.{op}")
    for fn in metrics.PROBLEM_FNS:
        values[f"problems.{fn}.calls"] = tracer.calls(f"problems.{fn}")
        values[f"problems.{fn}.self_s"] = tracer.self_s(f"problems.{fn}")
    for span in ("subproblem_build", "inner_solve"):
        values[f"dc.{span}.calls"] = tracer.calls(f"dc.{span}")
        values[f"dc.{span}.self_s"] = tracer.self_s(f"dc.{span}")
    # every line-search trial maps one trial point with exp
    trials = sum(rec[0] for (name, parent), rec in tracer.spans.items()
                 if parent == "dc.inner_solve" and name.endswith(".exp"))
    inner = sum(t.inner_total for t in traced.traces)
    values["dc.ls_trials"] = trials
    values["dc.ls_accept_ratio"] = inner / trials if trials else 0.0
    values["dc.outer_iters"] = sum(t.k for t in traced.traces)
    values["dc.inner_iters"] = inner
    values["lapack.eigh.per_inner_iter"] = \
        values["lapack.eigh.calls"] / inner if inner else 0.0
    if base.traces:
        values["dc.solve_ms_p50"] = 1e3 * percentile(
            [t.time_s for t in base.traces], 50)
    oracle = "analysis.busemann_numeric"
    values[f"{oracle}.calls"] = tracer.calls(oracle)
    if values[f"{oracle}.calls"]:
        values[f"{oracle}.us_per_call"] = \
            1e6 * tracer.self_s(oracle) / values[f"{oracle}.calls"]
        converged, runs = workload.oracle_converged(traced)
        values["analysis.oracle_converged_ratio"] = converged / runs
    for (geom, op, phase), secs in (base.call_s or {}).items():
        values[f"kernels.{geom}.{op}.{phase}.us_per_call"] = \
            1e6 * statistics.median(secs)
    values["bench.self_s"] = tracer.self_s("bench.run_benchmark")
    values["trace.overhead_ratio"] = traced.wall_s / base.wall_s - 1.0
    print(f"# untraced pass {base.wall_s:.3f} s, traced pass "
          f"{traced.wall_s:.3f} s: tracing overhead "
          f"{100.0 * values['trace.overhead_ratio']:.1f}%")
    return values


def layers(workload):
    """One untraced and one traced pass, both checked after tracing ends."""
    from tracer import Tracer
    from workloads import CheckResult
    base = workload.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass()
    finally:
        tracer.uninstall()
    check = CheckResult()
    for p in (base, traced):
        add_check(check, workload, p)
    return per_layer(workload, tracer, base, traced), check


def bootstrap():
    """Pin the BLAS threads and put the package source on the path;
    False if there is no source to run."""
    if not (SRC / "hadamard_dc" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return False
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    args = parse_args(argv)
    if not bootstrap():
        return 2
    t0 = time.perf_counter()
    import workloads
    workload = workloads.make(args.workload, args.seed)
    own_setup = time.perf_counter() - t0
    if args.setup_probe:
        cal = statistics.median(workloads.calibrate() for _ in range(5))
        print(json.dumps({"setup_s": own_setup, "cal_s": cal}))
        return 0

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# env " + json.dumps(environment(args)))
    if args.trace:
        values, check = layers(workload)
        spec = metrics.PER_LAYER
    else:
        values, check = end_to_end(args, workload, own_setup)
        spec = metrics.END_TO_END
    for name, unit, _ in spec:
        print(f"{name:<48} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": check.wrong == 0, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in spec}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
