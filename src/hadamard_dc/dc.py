"""DC problem abstraction, subproblem assembly, inner solver, outer loops.

Two outer linearizations of the concave part are provided for the model
phi = g - h with g, h geodesically convex and s_k a subgradient of h at
the current iterate p_k:

    classic:   minimize  g(p) - <s_k, log_{p_k} p>
    horofunction: minimize  g(p) + |s_k| B_{p_k, s_k}(p)

On flat geometries the two subproblems coincide.  Subproblems are solved
by Riemannian steepest descent with Armijo backtracking; the inner
tolerance is tied to the outer stopping tolerance.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (NumericalDomainError, StalledInnerSolveError,
                     ValidationError)
from .geometry.base import fd_riemannian_grad

logger = logging.getLogger(__name__)

_STEP_NORM_CAP = 10.0       # largest trial displacement of the line search


@dataclass
class DCProblem:
    """The pair (g, h) with evaluators and first-order providers.

    ``h_subgrad`` must return a tangent vector at its argument.  ``sigma``
    is the strong-convexity modulus shared by g and h (0 when unknown);
    ``phi_inf`` is an optional lower bound on phi used by the iteration
    complexity check.  ``cr_subgrad_factory`` optionally overrides the
    classic subproblem gradient with a problem-specific closed form.
    """

    manifold: object
    g: callable
    h: callable
    h_subgrad: callable
    g_rgrad: callable = None
    sigma: float = 0.0
    phi_inf: float = None
    cr_subgrad_factory: callable = None
    name: str = "dc-problem"
    metadata: dict = field(default_factory=dict)

    def phi(self, p):
        return self.g(p) - self.h(p)

    def phi_grad(self, p):
        if self.g_rgrad is None:
            raise ValueError(f"{self.name}: no gradient provider registered for g")
        return self.g_rgrad(p) - self.h_subgrad(p)


@dataclass
class InnerConfig:
    """Inner solver knobs.

    ``initial_step`` is "bb-like" (secant estimate of the curvature along
    the previous search ray) or "fixed" (unit trial step).  The inner
    gradient tolerance is ``tol_factor`` times the outer tolerance.
    """

    max_iters: int = 500
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    initial_step: str = "bb-like"
    tol_factor: float = 0.1
    max_halvings: int = 60

    def __post_init__(self):
        if not (0.0 < self.armijo_c1 < 1.0):
            raise ValueError("armijo_c1 must be in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must be in (0, 1)")
        if self.initial_step not in ("fixed", "bb-like"):
            raise ValueError(f"unknown initial step rule {self.initial_step!r}")


@dataclass
class SolverConfig:
    eps_base: float = 1e-4
    max_outer: int = 20000
    algorithm: str = "b_dca"            # "cr_dca" or "b_dca"
    inner: InnerConfig = field(default_factory=InnerConfig)

    def __post_init__(self):
        if self.eps_base <= 0.0:
            raise ValueError("eps_base must be positive")
        if self.algorithm not in ("cr_dca", "b_dca"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")


@dataclass
class IterationRecord:
    k: int
    point: object
    fval: float
    grad_norm: float
    inner_iters: int
    step_dist: float
    elapsed_s: float


@dataclass
class SolverTrace:
    """Per-outer-iteration records plus run totals.

    ``records[i]`` describes iterate p_i; its ``inner_iters`` and
    ``step_dist`` belong to the move p_i -> p_{i+1} (zero on the final
    record).  Gradient norms are scaled by the run's gamma, matching the
    reporting convention of the benchmark tables.  ``exit_reason`` is one
    of "grad", "step", "fixed_point", "max_outer".
    """

    records: list = field(default_factory=list)
    exit_reason: str = ""
    gamma: float = 1.0
    eps: float = 0.0
    algorithm: str = ""
    problem: str = ""
    time_s: float = 0.0

    @property
    def k(self):
        return max(len(self.records) - 1, 0)

    @property
    def inner_total(self):
        return sum(r.inner_iters for r in self.records)

    @property
    def final(self):
        return self.records[-1]

    @property
    def fval(self):
        return self.final.fval

    @property
    def grad_norm(self):
        return self.final.grad_norm

    def step_dists(self):
        return [r.step_dist for r in self.records[:-1]]

    def fvals(self):
        return [r.fval for r in self.records]


@dataclass
class SubproblemObjective:
    """Scalar objective plus gradient provider for one outer step."""

    value: callable
    grad: callable
    analytic: bool = True


def scale_factor(problem: DCProblem, p0):
    """gamma = 1/(|grad phi(p0)| + 1), the tolerance scaling of a run."""
    g0 = problem.phi_grad(p0)
    return 1.0 / (problem.manifold.norm(p0, g0) + 1.0)


def make_cr_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Classic linearized subproblem  g(p) - <s_k, log_{p_k} p>.

    Validates ``p_k`` and ``s_k`` once; the objective takes checked points.
    """
    manifold = problem.manifold
    p_k = manifold.check_point(p_k)
    s_k = manifold.check_tangent(p_k, s_k)

    def value(p):
        return problem.g(p) - manifold._inner(p_k, s_k, manifold._log(p_k, p))

    if problem.cr_subgrad_factory is not None:
        return SubproblemObjective(value, problem.cr_subgrad_factory(p_k, s_k))
    if problem.g_rgrad is not None:
        def grad(p):
            return problem.g_rgrad(p) - manifold._linear_model_grad(p_k, s_k,
                                                                    p)
        return SubproblemObjective(value, grad)
    logger.warning("%s: no analytic gradient for g, classic subproblem "
                   "falls back to finite differences", problem.name)
    return SubproblemObjective(
        value, lambda p: fd_riemannian_grad(manifold, value, p), analytic=False)


def make_b_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Horofunction subproblem  g(p) + |s_k| B_{p_k, s_k}(p).

    With s_k = 0 the second term is the constant 0 (continuity in s_k)
    and the subproblem reduces to minimizing g.
    """
    manifold = problem.manifold
    p_k = manifold.check_point(p_k)
    s_k = manifold.check_tangent(p_k, s_k)
    ns = manifold._norm(p_k, s_k)
    if ns == 0.0:
        if problem.g_rgrad is not None:
            return SubproblemObjective(problem.g, problem.g_rgrad)
        logger.warning("%s: no analytic gradient for g, horofunction "
                       "subproblem falls back to finite differences",
                       problem.name)
        return SubproblemObjective(
            problem.g,
            lambda p: fd_riemannian_grad(manifold, problem.g, p),
            analytic=False)

    def value(p):
        return problem.g(p) + ns * manifold._busemann(p_k, s_k, p)

    if problem.g_rgrad is not None:
        def grad(p):
            return problem.g_rgrad(p) + ns * manifold._busemann_grad(p_k, s_k,
                                                                     p)
        return SubproblemObjective(value, grad)
    logger.warning("%s: no analytic gradient for g, horofunction subproblem "
                   "falls back to finite differences", problem.name)
    return SubproblemObjective(
        value, lambda p: fd_riemannian_grad(manifold, value, p), analytic=False)


def inner_solve(objective: SubproblemObjective, start, cfg: InnerConfig,
                tol: float, manifold):
    """Riemannian steepest descent with Armijo backtracking.

    Returns (point, iteration count).  Stops when the subproblem gradient
    norm drops to ``tol``, after ``cfg.max_iters`` steps, or when the
    sufficient-decrease test falls below double-precision resolution of
    the objective (the point is then as converged as evaluations allow).
    Raises StalledInnerSolveError when the line search exhausts its
    halvings while certifiable progress was still representable.
    ``start`` and every trial point out of ``exp`` are validated, so the
    objective only sees checked points.
    """
    if tol <= 0.0:
        raise ValueError("inner tolerance must be positive")
    p = manifold.check_point(start)
    fp = objective.value(p)
    g = objective.grad(p)
    gn = manifold._norm(p, g)
    iters = 0
    alpha_prev = None
    fp_prev = None
    gn_prev = None
    eps_mach = float(np.finfo(float).eps)

    while gn > tol and iters < cfg.max_iters:
        if cfg.initial_step == "fixed" or alpha_prev is None:
            alpha = 1.0
        else:
            # secant estimate of the curvature along the previous ray:
            # fit f(a) = f0 - a*gn_prev^2 + h2*a^2/2 through the accepted step
            h2 = 2.0 * (fp - fp_prev + alpha_prev * gn_prev * gn_prev) \
                / (alpha_prev * alpha_prev)
            alpha = (gn_prev * gn_prev) / h2 if h2 > 0.0 else 2.0 * alpha_prev
            # keep the trial inside a band around the last accepted step so
            # a noise-corrupted estimate cannot ratchet the step to zero
            alpha = min(max(alpha, 0.1 * alpha_prev), 10.0 * alpha_prev)
            alpha = min(max(alpha, 1e-12), 1e6)
        # cap the trial displacement so steep gradients do not waste the
        # halving budget on overflowing exponentials
        alpha = min(alpha, _STEP_NORM_CAP / gn)

        accepted = False
        floored = False
        decrease_floor = 8.0 * eps_mach * (1.0 + abs(fp))
        for _ in range(cfg.max_halvings):
            required = cfg.armijo_c1 * alpha * gn * gn
            try:
                cand = manifold.check_point(manifold.exp(p, -alpha * g))
                fc = objective.value(cand)
            except (OverflowError, FloatingPointError, NumericalDomainError,
                    ValidationError):
                # trial point left the numerical domain; shorten the step
                alpha *= cfg.backtrack
                continue
            decrease = fp - fc
            if np.isfinite(fc) and decrease >= required \
                    and decrease >= decrease_floor:
                # sufficient AND representable progress
                accepted = True
                break
            if required < decrease_floor and gn <= 1e3 * tol \
                    and np.isfinite(fc) and abs(decrease) <= decrease_floor:
                # the required decrease is no longer representable in the
                # objective values and the gradient is already near the
                # target: converged to evaluation precision
                floored = True
                break
            alpha *= cfg.backtrack
        if floored:
            break
        if not accepted:
            raise StalledInnerSolveError(
                f"line search stalled after {cfg.max_halvings} halvings "
                f"(grad norm {gn:.3g}, tol {tol:.3g})",
                best_point=p, best_value=fp, iterations=iters)

        fp_prev, gn_prev, alpha_prev = fp, gn, alpha
        p, fp = cand, fc
        g = objective.grad(p)
        gn = manifold._norm(p, g)
        iters += 1

    return p, iters


def run_dca(problem: DCProblem, p0, cfg: SolverConfig) -> SolverTrace:
    """Outer loop shared by both linearizations.

    Per iteration: take s_k in the subdifferential of h at p_k, build the
    subproblem selected by ``cfg.algorithm``, and inner-solve it from p_k.

    The run is scaled by gamma = 1/(|grad phi(p0)| + 1): the solver
    behaves as if it minimized gamma * phi with tolerance
    eps = gamma * eps_base.  Gradient norms in the trace are therefore
    the scaled gamma * |grad phi(p_k)| (so the gradient stop
    gamma * |grad phi| <= eps is |grad phi| <= eps_base), while step
    distances are manifold distances compared against eps directly.
    A short step alone does not certify criticality on smooth problems,
    so the step exit additionally requires the gradient test at the new
    iterate.
    """
    manifold = problem.manifold
    p0 = manifold.check_point(p0)
    smooth = problem.g_rgrad is not None
    gamma = scale_factor(problem, p0) if smooth else 1.0
    eps = gamma * cfg.eps_base
    inner_tol = cfg.inner.tol_factor * cfg.eps_base
    make = make_cr_subproblem if cfg.algorithm == "cr_dca" else make_b_subproblem

    trace = SolverTrace(gamma=gamma, eps=eps, algorithm=cfg.algorithm,
                        problem=problem.name)
    t0 = time.perf_counter()
    p = p0
    fp = problem.phi(p)
    gn = gamma * manifold.norm(p, problem.phi_grad(p)) if smooth else math.inf

    while True:
        if gn <= eps:
            trace.exit_reason = "grad"
            break
        if len(trace.records) >= cfg.max_outer:
            trace.exit_reason = "max_outer"
            break
        s_k = problem.h_subgrad(p)
        objective = make(problem, p, s_k)
        try:
            p_next, n_inner = inner_solve(objective, p, cfg.inner, inner_tol,
                                          manifold)
        except StalledInnerSolveError as exc:
            moved = exc.best_point is not None and not np.array_equal(
                np.asarray(exc.best_point), np.asarray(p))
            if not moved:
                # no progress at all: surface the stall with a partial trace
                trace.records.append(IterationRecord(
                    k=len(trace.records), point=p, fval=fp, grad_norm=gn,
                    inner_iters=exc.iterations, step_dist=0.0,
                    elapsed_s=time.perf_counter() - t0))
                trace.exit_reason = "stalled"
                trace.time_s = time.perf_counter() - t0
                exc.trace = trace
                raise
            # the line search hit the evaluation-noise floor after real
            # progress; take the best point and let the outer tests decide
            logger.debug("%s: inner solve floored after %d iterations",
                         problem.name, exc.iterations)
            p_next, n_inner = exc.best_point, exc.iterations
        step = manifold._dist(p, p_next)
        trace.records.append(IterationRecord(
            k=len(trace.records), point=p, fval=fp, grad_norm=gn,
            inner_iters=n_inner, step_dist=step,
            elapsed_s=time.perf_counter() - t0))
        exact_fixed_point = bool(np.array_equal(np.asarray(p_next),
                                                np.asarray(p)))
        p = p_next
        fp = problem.phi(p)
        gn = gamma * manifold.norm(p, problem.phi_grad(p)) if smooth else math.inf
        if exact_fixed_point:
            trace.exit_reason = "fixed_point"
            break
        if step <= eps and (not smooth or gn <= eps):
            trace.exit_reason = "step"
            break

    trace.records.append(IterationRecord(
        k=len(trace.records), point=p, fval=fp, grad_norm=gn,
        inner_iters=0, step_dist=0.0,
        elapsed_s=time.perf_counter() - t0))
    trace.time_s = time.perf_counter() - t0
    return trace


def complexity_bound_check(trace: SolverTrace, sigma, phi_inf):
    """Check min_{k<=N} d(p_k, p_{k+1}) <= sqrt(2(phi(p0)-phi_inf)/(sigma(N+1)))
    for every prefix N of the trace.

    Returns (ok, witness) where witness is the first violating N.
    """
    if sigma <= 0.0:
        raise ValueError("complexity bound needs sigma > 0")
    if phi_inf is None or not math.isfinite(phi_inf):
        raise ValueError("complexity bound needs a finite phi_inf")
    steps = trace.step_dists()
    if not steps:
        return True, None
    phi0 = trace.records[0].fval
    running_min = math.inf
    for n, d in enumerate(steps):
        running_min = min(running_min, d)
        bound = math.sqrt(max(2.0 * (phi0 - phi_inf), 0.0)
                          / (sigma * (n + 1)))
        if running_min > bound + 1e-12:
            return False, n
    return True, None
