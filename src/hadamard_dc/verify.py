"""Invariant suites behind the `verify` CLI subcommand.

Each suite samples seeded random inputs, evaluates a family of exact
identities or inequalities, and reports its worst normalized violation
(observed error divided by the check's tolerance; below 1 passes).  The
CLI prints one line per suite and exits nonzero when any suite fails.

The suites are the single implementation of these sampled invariants:
acceptance criteria 5, 7 and 8 (``tests/test_acceptance.py``) call
``busemann_oracle_suite``, ``busemann_invariants_suite`` and
``support_suite`` with their own seeds and sample counts, and check
inline only what no suite covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analysis import busemann_numeric, support_check
from .dc import SolverConfig, complexity_bound_check, run_dca
from .geometry import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                       SPDManifold)
from .problems import (AcademicParams, ContrastiveParams, academic_problem,
                       contrastive_problem, random_start)
from .rng import check_seeds, make_rng


@dataclass
class SuiteResult:
    name: str
    max_violation: float        # worst error / tolerance; <= 1 passes
    witness: str = ""

    @property
    def passed(self):
        return self.max_violation <= 1.0


class _Collector:
    """Tracks the worst normalized violation of a suite."""

    def __init__(self, tol_scale):
        self.tol_scale = tol_scale
        self.worst = 0.0
        self.witness = ""

    def add(self, label, error, tol):
        tol = tol * self.tol_scale
        ratio = abs(error) / tol if tol > 0.0 and not math.isnan(error) \
            else math.inf
        if ratio > self.worst:
            self.worst = ratio
            self.witness = f"{label} (error {error:.3g}, tol {tol:.3g})"


def _geometries():
    return [Euclidean(5), DikinOrthant(3), Hyperboloid(2), Hyperboloid(5),
            SPDManifold(3)]


def roundtrip_suite(seed, tol_scale=1.0, samples=50):
    col = _Collector(tol_scale)
    for manifold in _geometries():
        rng = make_rng(seed)
        for _ in range(samples):
            p = manifold.random_point(rng)
            q = manifold.random_point(rng)
            d = manifold.dist(p, q)
            err = manifold.dist(manifold.exp(p, manifold.log(p, q)), q) \
                / (1.0 + d)
            col.add(f"{manifold.name} roundtrip", err, 1e-9)
    return SuiteResult("geometry-roundtrip", col.worst, col.witness)


def busemann_oracle_suite(seed, tol_scale=1.0, samples=25):
    col = _Collector(tol_scale)
    for manifold in _geometries():
        flat = isinstance(manifold, (Euclidean, DikinOrthant))
        tol = 1e-10 if flat else 1e-4
        rng = make_rng(seed)
        for _ in range(samples):
            q = manifold.random_point(rng)
            v = manifold.random_tangent(q, rng)
            p = manifold.random_point(rng)
            ray = BusemannRay(q, v)
            err = abs(manifold.busemann(ray, p)
                      - busemann_numeric(manifold, ray, p).value)
            col.add(f"{manifold.name} oracle", err, tol)
    return SuiteResult("busemann-oracle", col.worst, col.witness)


def busemann_invariants_suite(seed, tol_scale=1.0, samples=25):
    col = _Collector(tol_scale)
    for manifold in _geometries():
        rng = make_rng(seed)
        for _ in range(samples):
            q = manifold.random_point(rng)
            v = manifold.random_tangent(q, rng)
            p = manifold.random_point(rng)
            ray = BusemannRay(q, v)
            nv = manifold.norm(q, v)
            name = manifold.name
            # unit gradient norm
            g = manifold.busemann_grad(ray, p)
            col.add(f"{name} grad-norm", manifold.norm(p, g) - 1.0, 1e-8)
            # gradient at the base point
            gq = manifold.busemann_grad(ray, q)
            col.add(f"{name} base-grad",
                    manifold.norm(q, gq + v / nv), 1e-9)
            # linearity along the defining ray (unit-speed parameter so the
            # horofunction argument stays within double-precision range)
            tau = rng.uniform(-5.0, 5.0)
            bus = manifold.busemann(ray, manifold.exp(q, (tau / nv) * v))
            col.add(f"{name} ray-linearity", bus + tau, 1e-8)
            # positive scale invariance, on a bounded domain where the log
            # argument's conditioning keeps the 1e-10 slack meaningful
            pb = manifold.random_point_near(q, 5.0, rng)
            c = rng.uniform(0.1, 10.0)
            col.add(f"{name} scale-invariance",
                    manifold.busemann(BusemannRay(q, c * v), pb)
                    - manifold.busemann(ray, pb), 1e-10)
            # triangle bound
            slack = abs(manifold.busemann(ray, p)) - manifold.dist(q, p)
            col.add(f"{name} triangle", max(slack, 0.0), 1e-10)
    return SuiteResult("busemann-invariants", col.worst, col.witness)


def support_suite(seed, tol_scale=1.0, samples=300):
    col = _Collector(tol_scale)
    for manifold in (Hyperboloid(2), SPDManifold(3)):
        rng = make_rng(seed)
        z = manifold.random_point(rng)
        q = manifold.random_point(rng)
        report = support_check(
            manifold, lambda x: manifold.dist(x, z) ** 2,
            lambda x: -2.0 * manifold.log(x, z), 2.0, q, samples, rng)
        col.add(f"{manifold.name} support", max(report.max_violation, 0.0),
                1e-9)
    # flat geometries satisfy the support model with equality
    for manifold in (Euclidean(5), DikinOrthant(3)):
        rng = make_rng(seed)
        q = manifold.random_point(rng)
        s = manifold.random_tangent(q, rng)
        ns = manifold.norm(q, s)
        for _ in range(samples):
            p = manifold.random_point(rng)
            lhs = manifold.inner(q, s, manifold.log(q, p))
            rhs = -ns * manifold.busemann(BusemannRay(q, s), p)
            col.add(f"{manifold.name} flat-equality", lhs - rhs,
                    1e-10 * (1.0 + abs(lhs)))
    return SuiteResult("support-inequality", col.worst, col.witness)


def descent_suite(seed, tol_scale=1.0):
    col = _Collector(tol_scale)
    runs = []
    academic = academic_problem(AcademicParams(n=4))
    rng = make_rng(seed)
    runs.append((academic, random_start(academic, rng)))
    contrastive = contrastive_problem(
        ContrastiveParams(n=4, m=3, r=1), rng)
    runs.append((contrastive, random_start(contrastive, rng)))
    for problem, start in runs:
        for algorithm in ("cr_dca", "b_dca"):
            trace = run_dca(problem, start,
                            SolverConfig(algorithm=algorithm, max_outer=500))
            fvals = trace.fvals()
            worst_ascent = max(
                (b - a for a, b in zip(fvals, fvals[1:])), default=0.0)
            col.add(f"{problem.name} {algorithm} descent",
                    max(worst_ascent, 0.0), 1e-9)
            if trace.exit_reason != "max_outer":
                col.add(f"{problem.name} {algorithm} stationarity",
                        max(trace.grad_norm - trace.eps, 0.0),
                        1e-12 + trace.eps)
    # strongly convex flat instance with analytic minimum
    manifold = Euclidean(4)
    rng = make_rng(seed)
    z1 = manifold.random_point(rng)
    z2 = manifold.random_point(rng)
    problem_sc = _euclidean_sc_instance(manifold, z1, z2)
    trace = run_dca(problem_sc, manifold.random_point(rng),
                    SolverConfig(algorithm="b_dca"))
    ok, witness = complexity_bound_check(trace, 2.0, problem_sc.phi_inf)
    col.add("euclidean complexity bound", 0.0 if ok else math.inf, 1.0)
    return SuiteResult("descent-complexity", col.worst, col.witness)


def _euclidean_sc_instance(manifold, z1, z2):
    from .dc import DCProblem

    phi_inf = (-0.5 * float((2 * z1 - z2) @ (2 * z1 - z2))
               + float(z1 @ z1) - 0.5 * float(z2 @ z2))
    return DCProblem(
        manifold=manifold,
        g=lambda p: float((p.x - z1) @ (p.x - z1)),
        h=lambda p: 0.5 * float((p.x - z2) @ (p.x - z2)),
        h_subgrad=lambda p: p.x - z2,
        g_rgrad=lambda p: 2.0 * (p.x - z1),
        sigma=2.0, phi_inf=phi_inf, name="euclid-strongly-convex")


ALL_SUITES = (roundtrip_suite, busemann_oracle_suite,
              busemann_invariants_suite, support_suite, descent_suite)


def run_verify(seeds=(0,), tol_scale=1.0):
    """Run every suite for every seed; returns the list of SuiteResult.
    Raises ValueError before any suite unless 0 <= tol_scale < inf and
    every seed is a Philox key, an integer in [0, 2^64)."""
    if not 0.0 <= tol_scale < math.inf:
        raise ValueError(f"tol_scale must be finite and >= 0: {tol_scale}")
    seeds = list(seeds)
    for seed in seeds:
        check_seeds(seed)
    results = []
    for seed in seeds:
        for suite in ALL_SUITES:
            res = suite(seed, tol_scale=tol_scale)
            res.name = f"{res.name}[seed={seed}]"
            results.append(res)
    return results
