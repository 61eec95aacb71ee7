"""The benchmark's workloads: valley, spd-contrastive and kernels.

Every workload is closed-loop with one client: the next call starts when
the previous one has returned.  Inputs come only from the seed.

* ``valley`` and ``spd-contrastive`` run the solver the way the CLI does,
  through ``cli.build_parser`` and ``bench.run_benchmark``, with both
  outer loops (CR-DCA and B-DCA) from each seeded start.  Each start is
  its own invocation (``--runs 1``): the CLI stops at the first solver
  stall, and a stall should cost only its own start.  A step is one outer
  iteration, timed from ``SolverTrace.records[*].elapsed_s``; the traces
  are captured by wrapping ``hadamard_dc.bench.run_dca``.
* ``kernels`` calls the public geometry kernels and the Busemann limit
  oracle directly, with no solver loop, on a seeded input pool.  A step
  is one round: every kernel on every geometry for one pool entry, first
  on the pool's own arrays (``reused``, which the identity cache of
  validated points recognises) and then on fresh copies (``fresh``, which
  are validated in full).

A pass runs the workload's fixed job list once.  ``run_pass`` does only
the timed work; ``check`` checks a pass's outputs afterwards, so checks
are neither timed nor traced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from hadamard_dc import analysis, bench, cli
from hadamard_dc.geometry import (BusemannRay, DikinOrthant, Hyperboloid,
                                  SPDManifold)
from hadamard_dc.errors import StalledInnerSolveError
from hadamard_dc.rng import make_rng

from metrics import ORACLE, ORACLE_GEOMETRIES, PHASES
from stats import rows_for_seeds, strip_time_column

VALLEY_STARTS = 20          # seeded starts per pass, each solved by cr and b
SPD_STARTS = 7
ALGORITHMS = ("cr_dca", "b_dca")   # run from each start, in this order
# exits whose gradient test passed
CERTIFIED_EXITS = ("grad", "step")
# "fixed_point" is the solver's stop when the inner solve cannot move the
# iterate at all, which can leave the gradient test unmet: on the valley
# about a fifth of the runs stop so, with fval on its rounding floor, at a
# scaled gradient of at most 3.0 eps over 480 runs from 240 starts (none
# on spd-contrastive).  Such a stop counts as converged only up to this
# multiple of eps; an iterate stuck far from stationary (an inner solve
# that never moves) fails
FIXED_POINT_EPS_FACTOR = 10.0
# a converged valley run ends on a local minimum of the radial profile;
# observed |fval - f*| stays below 1e-10, so 1e-8 leaves a wide margin
VALLEY_FTOL = 1e-8
# cr and b from one start reach the same minimiser; observed agreement is
# about 1e-10 in relative terms
SPD_PAIR_RTOL = 1e-8

KERNEL_POOL = 256           # pool entries; a pass is one round per entry
CAL_ITERS = 200             # calibration loop length, ~4.5 ms
# calibration time after a job, as a share of the job's time
CAL_SHARE = 0.04
CAL_EVERY_ROUNDS = 4        # kernels: rounds per job
# bound at import, so that the traced run's LAPACK counts leave it out
_EIGH = np.linalg.eigh
ROUNDTRIP_RTOL = 1e-8       # exp_p(log_p q) against q
UNIT_NORM_TOL = 1e-8        # |grad B| = 1
# closed form against the limit oracle where it converged, as in the
# package's own oracle tests
ORACLE_TOL = {"hyperbolic2": 1e-6, "spd5": 1e-5}


@dataclass
class StartRun:
    """The traces of one solver invocation, and what it raised or
    returned as a stall, if anything."""

    traces: list
    error: Exception = None


@dataclass
class Job:
    """One timed unit of a pass, a solver invocation or
    ``CAL_EVERY_ROUNDS`` kernel rounds, with the calibration sampled right
    after it for ``CAL_SHARE`` of its time.  ``cpu_s`` is process CPU
    time, which leaves out the time other tenants of the machine held the
    CPU."""

    cpu_s: float
    step_s: list
    cal_s: float


@dataclass
class PassResult:
    """Timed figures of one pass."""

    wall_s: float
    jobs: list
    starts: list = field(default_factory=list)
    csv_rows: list = None
    outputs: list = None
    call_s: dict = None

    @property
    def traces(self):
        return [t for run in self.starts for t in run.traces]

    @property
    def step_s(self):
        return [s for job in self.jobs for s in job.step_s]

    @property
    def cpu_s(self):
        return sum(job.cpu_s for job in self.jobs)


@dataclass
class CheckResult:
    """Checks of the operations of a workload's job list.  An operation
    is named by a key that is the same in every pass, so that a run which
    repeats its pass counts each operation once, as failed if it failed in
    any pass: the counts depend on the seed, not on how many passes the
    run had time for.  ``failed`` counts operations that raised, stalled
    or gave a wrong output; ``wrong`` only those whose output failed its
    check.  ``messages`` maps each failed operation to its first
    failure."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    wrong_ops: set = field(default_factory=set)
    messages: dict = field(default_factory=dict)

    @property
    def failed(self):
        return len(self.failed_ops)

    @property
    def wrong(self):
        return len(self.wrong_ops)

    def fail(self, op, message, wrong=True):
        self.failed_ops.add(op)
        if wrong:
            self.wrong_ops.add(op)
        self.messages.setdefault(op, message)

    def merge(self, other):
        """Fold in the check of another pass of the same job list; returns
        the messages of the operations that had not failed before."""
        new = [msg for op, msg in other.messages.items()
               if op not in self.failed_ops]
        self.attempted = max(self.attempted, other.attempted)
        self.failed_ops |= other.failed_ops
        self.wrong_ops |= other.wrong_ops
        for op, msg in other.messages.items():
            self.messages.setdefault(op, msg)
        return new


def calibrate(budget_s=0.0):
    """Mean seconds of a fixed computation that runs no package code,
    repeated until ``budget_s`` is spent (at least once).  Sampled between
    jobs, it tracks the speed of a shared machine, which shifts by up to
    30% for minutes at a time; single samples also flip between a fast
    and a slow state, so a long job is scaled by the mean of many."""
    times = [_calibration_sample()]
    while sum(times) < budget_s:
        times.append(_calibration_sample())
    return sum(times) / len(times)


def _calibration_sample():
    """Seconds of small LAPACK, array arithmetic and interpreter work, the
    mix the workloads spend their time on."""
    a = np.diag(np.arange(1.0, 6.0)) + 0.1
    v = np.array([0.3, -1.2, 2.0])
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        lam, u = _EIGH(a)
        acc += float(((u * np.sqrt(lam)) @ u.T)[0, 1])
        x = 2.5 * v
        acc += float(x @ v) - 2.0 * float(x[-1]) * float(v[-1]) + 0.5 * i
        for j in range(20):
            acc += 0.25 * j
    return time.perf_counter() - t0


def _step_times(trace):
    """Seconds per outer iteration; the last record only evaluates the
    final point, so it closes no step."""
    elapsed = [r.elapsed_s for r in trace.records]
    return [b - a for a, b in zip([0.0] + elapsed[:-2], elapsed[:-1])]


def radial_minima(a, b):
    """Local-minimum values over d >= 0 of (a - d)^2 + b (d - d^2)^2, the
    valley objective when its two reference points coincide and theta=1."""
    values = []
    for root in np.roots([4.0 * b, -6.0 * b, 2.0 * b + 2.0, -2.0 * a]):
        d = root.real
        if abs(root.imag) < 1e-12 and d >= 0.0 \
                and 12.0 * b * d * d - 12.0 * b * d + 2.0 * b + 2.0 > 0.0:
            values.append((a - d) ** 2 + b * (d - d * d) ** 2)
    return values


def _warm_up(manifold, p, q):
    """One call of each geometry kernel; loads LAPACK lazily."""
    v = manifold.log(p, q)
    manifold.exp(p, v)
    manifold.dist(p, q)
    manifold.inner(p, v, v)
    ray = BusemannRay(p, v)
    manifold.busemann(ray, q)
    manifold.busemann_grad(ray, q)
    manifold.linear_model_grad(p, v, q)


class SolverWorkload:
    """Both outer loops from each seeded start of the job list."""

    def __init__(self, name, seed):
        self.name = name
        if name == "valley":
            flags = ["rosenbrock", "--tangency", "internal", "--a", "1",
                     "--b", "100", "--theta", "1", "--n", "2"]
            starts = VALLEY_STARTS
        else:
            flags = ["spd-contrastive", "--n", "5", "--m", "5", "--r", "4"]
            starts = SPD_STARTS
        parser = cli.build_parser()
        # disjoint blocks of per-run seeds, so that two benchmark seeds
        # share no start
        self.run_seeds = [seed * starts + i for i in range(starts)]
        self.invocations = [
            parser.parse_args(flags + ["--algorithm", "both", "--runs", "1",
                                       "--seed", str(s)])
            for s in self.run_seeds]
        self.subcommand = self.invocations[0].subcommand
        rng = make_rng(self.invocations[0].seed)
        problem = bench.make_problem(self.subcommand, self.invocations[0],
                                     rng)
        p = bench.random_start(problem, rng)
        _warm_up(problem.manifold, p, bench.random_start(problem, rng))
        problem.phi(p)
        problem.phi_grad(p)
        if name == "valley":
            if not problem.metadata["degenerate"]:
                raise ValueError("valley check assumes coinciding "
                                 "reference points")
            args = self.invocations[0]
            self.minima = radial_minima(args.a, args.b)

    def run_pass(self):
        traces, starts, rows, jobs = [], [], [], []
        run_dca = bench.run_dca

        def capture(problem, p0, cfg):
            try:
                trace = run_dca(problem, p0, cfg)
            except StalledInnerSolveError as exc:
                traces.append(exc.trace)
                raise
            traces.append(trace)
            return trace

        wall = 0.0
        bench.run_dca = capture
        try:
            for args in self.invocations:
                first = len(traces)
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    records, error = bench.run_benchmark(self.subcommand,
                                                         args)
                except Exception as exc:    # counts as a failed start
                    records, error = [], exc
                job_s = time.perf_counter() - t0
                cpu = time.process_time() - c0
                wall += job_s
                if error is not None:       # drop the frames it holds
                    error = error.with_traceback(None)
                starts.append(StartRun(traces[first:], error))
                csv = strip_time_column(bench.records_to_csv(records))
                rows += csv if not rows else csv[1:]
                steps = [s for t in traces[first:] for s in _step_times(t)]
                jobs.append(Job(cpu, steps, calibrate(CAL_SHARE * job_s)))
        finally:
            bench.run_dca = run_dca
        return PassResult(wall, jobs, starts=starts, csv_rows=rows)

    def check(self, result):
        """A job fails if it stalls, raises or is not run after a stall,
        exits by ``max_outer``, by the gradient or step test with a
        gradient above eps or at a fixed point with a gradient above
        ``FIXED_POINT_EPS_FACTOR`` eps, or ends away from a known minimum
        (valley) or from its partner run (spd-contrastive)."""
        out = CheckResult(attempted=len(ALGORITHMS) * len(self.invocations))
        for i, run in enumerate(result.starts):
            done = [t for t in run.traces if t.exit_reason != "stalled"]
            for algorithm in ALGORITHMS:
                if algorithm not in {t.algorithm for t in done}:
                    out.fail((i, algorithm), f"start {i}: {run.error!r}",
                             wrong=False)
            for t in done:
                self._check_trace(out, (i, t.algorithm), t)
            if self.name != "valley" and len(done) == 2:
                f_cr, f_b = done[0].fval, done[1].fval
                if not abs(f_cr - f_b) <= SPD_PAIR_RTOL * (1.0 + abs(f_b)):
                    out.fail((i, done[1].algorithm),
                             f"start {i}: b fval {f_b!r} disagrees with cr "
                             f"{f_cr!r}")
        return out

    def _check_trace(self, out, op, t):
        where = f"start {op[0]} {op[1]}"
        if t.exit_reason in CERTIFIED_EXITS:
            converged = t.grad_norm <= t.eps
        else:
            converged = t.exit_reason == "fixed_point" \
                and t.grad_norm <= FIXED_POINT_EPS_FACTOR * t.eps
        if not converged:
            out.fail(op, f"{where}: exit {t.exit_reason}, scaled gradient "
                     f"{t.grad_norm:.3g} against eps {t.eps:.3g}")
        elif self.name == "valley":
            gap = min(abs(t.fval - f) for f in self.minima)
            if not gap <= VALLEY_FTOL:
                out.fail(op, f"{where}: fval {t.fval!r} is {gap:.3g} from "
                         "the nearest minimum")

    @staticmethod
    def uncertified(result):
        """Runs that stopped at a fixed point above eps, with the largest
        ratio of scaled gradient to eps among them."""
        ratios = [t.grad_norm / t.eps for t in result.traces
                  if t.exit_reason == "fixed_point" and t.grad_norm > t.eps]
        return len(ratios), max(ratios, default=0.0)

    def reference_rows(self, csv_rows):
        return rows_for_seeds(csv_rows, self.run_seeds)


class KernelsWorkload:
    """Public kernel calls on a seeded pool, reused and fresh."""

    name = "kernels"

    def __init__(self, seed):
        rng = make_rng(seed)
        self.geometries = {"hyperbolic2": Hyperboloid(2),
                           "spd5": SPDManifold(5), "spd20": SPDManifold(20),
                           "dikin3": DikinOrthant(3)}
        self.pool = [{key: self._entry(m, rng)
                      for key, m in self.geometries.items()}
                     for _ in range(KERNEL_POOL)]
        for entry in self.pool:
            for key, m in self.geometries.items():
                m.check_point(entry[key]["p"])
                m.check_point(entry[key]["q"])
        self._round(self.pool[0], ("reused",), {})

    @staticmethod
    def _entry(m, rng):
        def scaled(x, w, length):
            return (length / m.norm(x, w)) * w

        p = m.random_point(rng)
        q = m.random_point(rng)
        return {"p": p, "q": q,
                "u": m.random_tangent(p, rng),
                "v": scaled(p, m.random_tangent(p, rng),
                            rng.uniform(0.1, 2.0)),
                "s": scaled(q, m.random_tangent(q, rng),
                            rng.uniform(0.5, 2.0))}

    @staticmethod
    def _calls(m, key, x):
        """Each call that takes a ray gets a ray of its own, so that no
        call profits from work a previous one left on the ray."""
        def ray():
            return BusemannRay(x["q"], x["s"])

        calls = [("exp", m.exp, (x["p"], x["v"])),
                 ("log", m.log, (x["p"], x["q"])),
                 ("dist", m.dist, (x["p"], x["q"])),
                 ("inner", m.inner, (x["p"], x["u"], x["v"])),
                 ("busemann", m.busemann, (ray(), x["p"])),
                 ("busemann_grad", m.busemann_grad, (ray(), x["p"])),
                 ("linear_model_grad", m.linear_model_grad,
                  (x["q"], x["s"], x["p"]))]
        if key in ORACLE_GEOMETRIES:
            calls.append((ORACLE, analysis.busemann_numeric,
                          (m, ray(), x["p"])))
        return calls

    def _round(self, entry, phases, call_s):
        """One round; returns (seconds, outputs).  Fresh copies are made
        before the clock starts, so copying is not timed."""
        plans = []
        for phase in phases:
            for key, m in self.geometries.items():
                x = entry[key]
                if phase == "fresh":
                    x = {k: a.copy() for k, a in x.items()}
                # look methods up per round so a tracer's wrappers apply
                plans += [(phase, key, op, fn, args)
                          for op, fn, args in self._calls(m, key, x)]
        outputs = []
        clock = time.perf_counter
        t_round = clock()
        for phase, key, op, fn, args in plans:
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:    # a raising kernel is a failed call
                # the traceback would keep this round's frames, and with
                # them its outputs, alive in a reference cycle
                out = exc.with_traceback(None)
            call_s.setdefault((key, op, phase), []).append(clock() - t0)
            outputs.append((key, op, args, out))
        return clock() - t_round, outputs

    def run_pass(self):
        jobs, steps, outputs, call_s = [], [], [], {}
        wall = cpu = 0.0
        for i, entry in enumerate(self.pool, 1):
            t0, c0 = time.perf_counter(), time.process_time()
            secs, outs = self._round(entry, PHASES, call_s)
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            steps.append(secs)
            outputs += outs
            if i % CAL_EVERY_ROUNDS == 0 or i == len(self.pool):
                jobs.append(Job(cpu, steps,
                                calibrate(CAL_SHARE * sum(steps))))
                steps, cpu = [], 0.0
        return PassResult(wall, jobs, outputs=outputs, call_s=call_s)

    def check(self, result):
        """A call fails if it raises; ``log`` if exp_p of its output
        misses q, ``busemann_grad`` if its output is not a unit vector,
        and the oracle if it converged away from the closed form."""
        out = CheckResult(attempted=len(result.outputs))
        closed = {}
        # a pass makes its calls in the same order every time
        for j, (key, op, args, value) in enumerate(result.outputs):
            m = self.geometries[key]
            where = f"{key}.{op}"
            if isinstance(value, Exception):
                out.fail(j, f"{where} raised {value!r}", wrong=False)
                closed.pop(key, None)
            elif op == "log":
                p, q = args
                q2 = m.exp(p, value)
                err = np.linalg.norm(q2 - q) / (1.0 + np.linalg.norm(q))
                if not err <= ROUNDTRIP_RTOL:
                    out.fail(j, f"{where}: exp/log round trip error "
                             f"{err:.3g}")
            elif op == "busemann_grad":
                err = abs(m.norm(args[1], value) - 1.0)
                if not err <= UNIT_NORM_TOL:
                    out.fail(j, f"{where}: |grad B| off 1 by {err:.3g}")
            elif op == "busemann":
                closed[key] = value
            elif op == ORACLE and value.converged and key in closed:
                err = abs(value.value - closed[key])
                if not err <= ORACLE_TOL[key]:
                    out.fail(j, f"{where}: oracle off the closed form by "
                             f"{err:.3g}")
        return out

    @staticmethod
    def oracle_converged(result):
        """(oracle calls that reported ``converged``, all oracle calls);
        a call that raised did not converge."""
        runs = [v for _, op, _, v in result.outputs if op == ORACLE]
        return sum(getattr(v, "converged", False) for v in runs), len(runs)


def make(name, seed):
    if name == "kernels":
        return KernelsWorkload(seed)
    return SolverWorkload(name, seed)
