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
_MAX_INNER_ITERS = 500      # steepest-descent steps per inner solve
_ARMIJO_C1 = 1e-4           # sufficient-decrease constant
_BACKTRACK = 0.5            # step shrink factor per halving
_MAX_HALVINGS = 60          # halvings before a line search stalls
_INNER_TOL_FACTOR = 0.1     # inner gradient tolerance / outer eps_base


@dataclass
class DCProblem:
    """The pair (g, h) with evaluators and first-order providers.

    ``h_subgrad`` must return a tangent vector at its argument.  ``sigma``
    is the strong-convexity modulus shared by g and h (0 when unknown);
    ``phi_inf`` is an optional lower bound on phi used by the iteration
    complexity check.
    """

    manifold: object
    g: callable
    h: callable
    h_subgrad: callable
    g_rgrad: callable = None
    sigma: float = 0.0
    phi_inf: float = None
    name: str = "dc-problem"
    metadata: dict = field(default_factory=dict)

    def phi(self, p):
        return self.g(p) - self.h(p)

    def phi_grad(self, p):
        if self.g_rgrad is None:
            raise ValueError(f"{self.name}: no gradient provider registered for g")
        return self.g_rgrad(p) - self.h_subgrad(p)


@dataclass
class SolverConfig:
    eps_base: float = 1e-4
    max_outer: int = 20000
    algorithm: str = "b_dca"            # "cr_dca" or "b_dca"

    def __post_init__(self):
        if not 0.0 < self.eps_base < math.inf:
            raise ValueError(f"eps_base must be finite and > 0: {self.eps_base}")
        if not self.max_outer >= 0:
            raise ValueError(f"max_outer must be >= 0: {self.max_outer}")
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


def _objective(problem: DCProblem, value, grad, kind) -> SubproblemObjective:
    """The subproblem ``value`` with gradient ``grad``, or with central
    finite differences of ``value`` when g has no analytic gradient."""
    if problem.g_rgrad is not None:
        return SubproblemObjective(value, grad)
    logger.warning("%s: no analytic gradient for g, %s subproblem falls "
                   "back to finite differences", problem.name, kind)
    manifold = problem.manifold
    return SubproblemObjective(
        value, lambda p: fd_riemannian_grad(manifold, value, p), analytic=False)


def make_cr_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Classic linearized subproblem  g(p) - <s_k, log_{p_k} p>.

    Validates ``p_k`` and ``s_k`` once and prepares the linear model once;
    the objective takes checked points.
    """
    manifold = problem.manifold
    p_k = manifold.check_point(p_k)
    s_k = manifold.check_tangent(p_k, s_k)
    model = manifold._linear_model(p_k, s_k)

    def value(p):
        return problem.g(p) - model.value(p)

    def grad(p):
        return problem.g_rgrad(p) - model.grad(p)

    return _objective(problem, value, grad, "classic")


def make_b_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Horofunction subproblem  g(p) + |s_k| B_{p_k, s_k}(p).

    With s_k = 0 the second term is the constant 0 (continuity in s_k)
    and the subproblem reduces to minimizing g.  Otherwise the
    horofunction of the ray (p_k, s_k) is prepared once.
    """
    manifold = problem.manifold
    p_k = manifold.check_point(p_k)
    s_k = manifold.check_tangent(p_k, s_k)
    ns = manifold._norm(p_k, s_k)
    if ns == 0.0:
        return _objective(problem, problem.g, problem.g_rgrad, "horofunction")

    horo = manifold._horofunction(p_k, s_k)

    def value(p):
        return problem.g(p) + ns * horo.value(p)

    def grad(p):
        return problem.g_rgrad(p) + ns * horo.grad(p)

    return _objective(problem, value, grad, "horofunction")


def inner_solve(objective: SubproblemObjective, start, tol: float, manifold):
    """Riemannian steepest descent with Armijo backtracking.

    Returns (point, iteration count).  The first trial step is 1, later
    ones a secant estimate along the previous ray; a trial is shrunk by
    ``_BACKTRACK`` until the Armijo test with ``_ARMIJO_C1`` holds.  Stops
    when the subproblem gradient norm drops to ``tol``, after
    ``_MAX_INNER_ITERS`` steps, when the sufficient-decrease test falls
    below double-precision resolution of the objective (the point is then
    as converged as evaluations allow), or when a line search after an
    accepted step runs out of ``_MAX_HALVINGS`` halvings.  Raises
    StalledInnerSolveError if the first line search runs out of them.
    ``start`` and every trial point out of ``exp`` are validated, so the
    objective only sees checked points; the accepted iterate is not
    checked again when a trial steps from it.
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

    while gn > tol and iters < _MAX_INNER_ITERS:
        if alpha_prev is None:
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
        for _ in range(_MAX_HALVINGS):
            required = _ARMIJO_C1 * alpha * gn * gn
            try:
                cand = manifold.check_point(manifold._exp(p, -alpha * g))
                fc = objective.value(cand)
            except (OverflowError, FloatingPointError, NumericalDomainError,
                    ValidationError):
                # trial point left the numerical domain; shorten the step
                alpha *= _BACKTRACK
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
            alpha *= _BACKTRACK
        if floored:
            break
        if not accepted:
            if iters == 0:
                raise StalledInnerSolveError(
                    f"line search stalled after {_MAX_HALVINGS} halvings "
                    f"(grad norm {gn:.3g}, tol {tol:.3g})",
                    best_point=p, best_value=fp)
            # as after a floored stop, the outer tests judge this point
            logger.debug("inner solve stalled after %d iterations", iters)
            break

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
    iterate.  Each iterate takes one subgradient of h, shared by its
    gradient test and its subproblem; a non-smooth problem takes it only
    where a subproblem is built.  A stalled first line search raises
    StalledInnerSolveError with the partial trace as ``exc.trace``.
    """
    manifold = problem.manifold
    p0 = manifold.check_point(p0)
    smooth = problem.g_rgrad is not None
    gamma = scale_factor(problem, p0) if smooth else 1.0
    eps = gamma * cfg.eps_base
    inner_tol = _INNER_TOL_FACTOR * cfg.eps_base
    make = make_cr_subproblem if cfg.algorithm == "cr_dca" else make_b_subproblem

    def subgradient_and_grad_norm(p):
        # (s_k, gamma |grad phi(p)|); s_k is left to the loop top when
        # there is no gradient test
        if not smooth:
            return None, math.inf
        s = problem.h_subgrad(p)
        return s, gamma * manifold.norm(p, problem.g_rgrad(p) - s)

    trace = SolverTrace(gamma=gamma, eps=eps, algorithm=cfg.algorithm,
                        problem=problem.name)
    t0 = time.perf_counter()
    p = p0
    fp = problem.phi(p)
    s_k, gn = subgradient_and_grad_norm(p)

    def record(inner_iters=0, step_dist=0.0):
        trace.records.append(IterationRecord(
            k=len(trace.records), point=p, fval=fp, grad_norm=gn,
            inner_iters=inner_iters, step_dist=step_dist,
            elapsed_s=time.perf_counter() - t0))

    stall = None
    while True:
        if gn <= eps:
            trace.exit_reason = "grad"
            break
        if len(trace.records) >= cfg.max_outer:
            trace.exit_reason = "max_outer"
            break
        if s_k is None:
            s_k = problem.h_subgrad(p)
        objective = make(problem, p, s_k)
        try:
            p_next, n_inner = inner_solve(objective, p, inner_tol, manifold)
        except StalledInnerSolveError as exc:
            trace.exit_reason = "stalled"
            stall = exc
            break
        step = manifold._dist(p, p_next)
        record(n_inner, step)
        p = p_next
        fp = problem.phi(p)
        s_k, gn = subgradient_and_grad_norm(p)
        if n_inner == 0:            # no step taken, so p_next is p
            trace.exit_reason = "fixed_point"
            break
        if step <= eps and (not smooth or gn <= eps):
            trace.exit_reason = "step"
            break

    record()
    trace.time_s = time.perf_counter() - t0
    if stall is not None:
        stall.trace = trace
        raise stall
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
