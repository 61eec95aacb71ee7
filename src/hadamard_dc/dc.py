"""DC problem abstraction, subproblem assembly, inner solver, outer loops.

Two outer linearizations of the concave part are provided for the model
phi = g - h with g, h geodesically convex and s_k a subgradient of h at
the current iterate p_k:

    classic:   minimize  g(p) - <s_k, log_{p_k} p>
    horofunction: minimize  g(p) + |s_k| B_{p_k, s_k}(p)

On flat geometries the two subproblems coincide.  Each is g + scale *
term with the model (term, scale) of h at p_k: the linear model and -1,
or ``Manifold._support_term(p_k, s_k)``.  Subproblems are solved by
Riemannian steepest descent with Armijo backtracking, stopped once the
subproblem gradient is at most max(tol, ``_INNER_TOL_FACTOR`` |grad
phi(p_k)|): by the support inequality h(p) >= h(p_k) - |s_k|
B_{p_k,s_k}(p) (convexity of h for the classic model) each subproblem
majorizes phi up to a constant and touches it at p_k with the gradient
grad phi(p_k), so any accepted step lowers phi and the subproblem need
not be solved exactly; the outer tests certify eps.  The horofunction
subproblem is geodesically convex (g is convex and so is every
Busemann function), so along a search ray its Armijo test passes on an
interval of steps: there the first line search of an inner solve starts
at the grid index that the previous outer step's first search accepted,
which ``run_dca`` carries, and returns the step a search from index 0
would, bit for bit.  The classic subproblem's term need not be convex,
and its first search starts at index 0.

Every iterate and trial point is a prepared point
(:class:`~hadamard_dc.geometry.base.Point`): p0 is checked and made one
once in ``run_dca``, and each line-search trial in ``inner_solve`` is one
``step`` of the ray ``Manifold._ray(p, -grad)`` that the line search
prepared at its iterate, which checks exp_p(-alpha grad) and makes it
one.  It is the argument of the problem closures and of the subproblem
term and the base point of every geometry kernel; each keeps on it what
it derives from it, so the SPD factor (the Cholesky factor L, which a
trial point has from its test, and L^-1), g and grad g, the subgradient
of h and the term's factorizations are computed once per point.  The point
a trial reaches carries them out of the inner solve to the outer tests
and into the next subproblem.  A point is trusted because of its type:
``make_cr_subproblem``, ``make_b_subproblem`` and ``inner_solve`` check
an array once and skip ``check_point`` for a point.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (NumericalDomainError, StalledInnerSolveError,
                     ValidationError)
from .geometry.base import Point, check_count, fd_riemannian_grad

logger = logging.getLogger(__name__)

_STEP_NORM_CAP = 10.0       # largest trial displacement of the line search
_MAX_INNER_ITERS = 500      # steepest-descent steps per inner solve
_ARMIJO_C1 = 1e-4           # sufficient-decrease constant
_BACKTRACK = 0.5            # step shrink factor per halving
_MAX_HALVINGS = 60          # halvings before a line search stalls
_INNER_TOL_FACTOR = 0.1     # inner tolerance / eps_base and / |grad phi(p_k)|


@dataclass
class DCProblem:
    """The pair (g, h) with evaluators and first-order providers.

    ``g``, ``h``, ``h_subgrad`` and ``g_rgrad`` take a
    :class:`~hadamard_dc.geometry.base.Point` of ``manifold``, and
    ``h_subgrad`` must return a tangent vector at it.  ``phi`` and
    ``phi_grad`` take a point or an array, which they check.  ``sigma`` is
    the strong-convexity modulus shared by g and h (0 when unknown);
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
        p = self.manifold.point(p)
        return p.derived(self.g) - self.h(p)

    def phi_grad(self, p):
        """grad g - s at ``p``, with g's gradient and the subgradient s of
        h kept on the point for the caller's next use."""
        if self.g_rgrad is None:
            raise ValueError(f"{self.name}: no gradient provider registered for g")
        p = self.manifold.point(p)
        return p.derived(self.g_rgrad) - p.derived(self.h_subgrad)


@dataclass
class SolverConfig:
    eps_base: float = 1e-4
    max_outer: int = 20000
    algorithm: str = "b_dca"            # "cr_dca" or "b_dca"

    def __post_init__(self):
        if not 0.0 < self.eps_base < math.inf:
            raise ValueError(f"eps_base must be finite and > 0: {self.eps_base}")
        check_count(self.max_outer, "max_outer", least=0)
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
    of "grad", "step", "fixed_point", "max_outer", "stalled" (the first
    line search of an inner solve ran out of halvings above the noise
    floor; ``run_dca`` then raises StalledInnerSolveError with this
    trace).
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
    """Objective g(p) + scale * term(p) of one outer step, with the model
    (term, scale) of h at p_k prepared: ``term`` has ``value``, ``grad``.

    ``value`` and ``grad`` evaluate at a point; an array is checked and
    made one.  g(p) and grad g(p) are kept on the point, so a point the
    inner solve accepts carries them to the outer tests and into the
    next inner solve, and g is evaluated once per point.  ``term`` None
    is the zero term (a horofunction subproblem with s_k = 0, or g
    alone).  When g has no analytic gradient, ``grad`` takes central
    finite differences of ``value``, which checks each difference point.
    """

    problem: DCProblem
    term: object = None
    scale: float = 0.0

    def value(self, p):
        if not isinstance(p, Point):
            p = self.problem.manifold.point(p)
        g_p = p.derived(self.problem.g)
        return g_p if self.term is None \
            else g_p + self.scale * self.term.value(p)

    def grad(self, p):
        problem = self.problem
        if not isinstance(p, Point):
            p = problem.manifold.point(p)
        if problem.g_rgrad is None:
            return fd_riemannian_grad(problem.manifold, self.value, p)
        g_grad_p = p.derived(problem.g_rgrad)
        return g_grad_p if self.term is None \
            else g_grad_p + self.scale * self.term.grad(p)


def scale_factor(problem: DCProblem, p0):
    """gamma = 1/(|grad phi(p0)| + 1), the tolerance scaling of a run."""
    return 1.0 / (_grad_norm(problem, problem.manifold.point(p0)) + 1.0)


def _grad_norm(problem, p):
    """|grad phi(p)|_p at a point, with grad phi checked as a tangent."""
    m = problem.manifold
    return m._norm(p, m.check_tangent(p.x, problem.phi_grad(p)))


def _model_point(problem: DCProblem, p_k, s_k, kind):
    """p_k as a point and s_k checked at it; warns where g has no analytic
    gradient."""
    p_k = problem.manifold.point(p_k)
    s_k = problem.manifold.check_tangent(p_k.x, s_k)
    if problem.g_rgrad is None:
        logger.warning("%s: no analytic gradient for g, %s subproblem falls "
                       "back to finite differences", problem.name, kind)
    return p_k, s_k


def make_cr_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Classic linearized subproblem  g(p) - <s_k, log_{p_k} p>.

    Validates ``s_k``, and ``p_k`` unless it is a point already, and
    prepares the linear model once.  Its scale is -1, since a - b and
    a + (-1.0 * b) are equal bit for bit.
    """
    p_k, s_k = _model_point(problem, p_k, s_k, "classic")
    return SubproblemObjective(problem,
                               problem.manifold._linear_model(p_k, s_k), -1.0)


def make_b_subproblem(problem: DCProblem, p_k, s_k) -> SubproblemObjective:
    """Horofunction subproblem  g(p) + |s_k| B_{p_k, s_k}(p).

    Its term and scale are ``Manifold._support_term(p_k, s_k)``: the
    horofunction of the ray (p_k, s_k), prepared once, and |s_k|, or the
    zero term where s_k = 0 (continuity in s_k), which reduces the
    subproblem to minimizing g.  Validates ``s_k``, and ``p_k`` unless it
    is a point already.
    """
    p_k, s_k = _model_point(problem, p_k, s_k, "horofunction")
    return SubproblemObjective(problem,
                               *problem.manifold._support_term(p_k, s_k))


def _trial(ray, objective, alpha):
    """(point, value) of the trial ``ray.step(alpha)``; (None, nan) where
    the trial left the numerical domain, which no test accepts."""
    try:
        cand = ray.step(alpha)
        return cand, objective.value(cand)
    except (OverflowError, FloatingPointError, NumericalDomainError,
            ValidationError):
        return None, math.nan


def _sufficient(fp, fc, required, decrease_floor):
    """Whether the trial value ``fc`` is finite and its decrease from
    ``fp`` is at least the Armijo ``required`` and ``decrease_floor``:
    sufficient AND representable progress."""
    return math.isfinite(fc) and fp - fc >= max(required, decrease_floor)


def inner_solve(objective: SubproblemObjective, start, tol: float,
                first_index: int = 0):
    """Riemannian steepest descent with Armijo backtracking on g + scale *
    term, (term, scale) the linear model and -1 or ``_support_term``, on
    the manifold of ``objective.problem``.

    Returns (point, iteration count, first index), the point a
    :class:`~hadamard_dc.geometry.base.Point` that carries g and grad g
    (when g has an analytic gradient), the first index the grid index
    that the first line search accepted (``first_index`` if it accepted
    none).  The outer loop passes the point the previous inner solve
    returned as ``start`` and its first index as ``first_index``, so g
    is evaluated once at each trial point and its gradient once at each
    accepted one.

    The first line search tries the grid steps alpha_i = alpha_s 2^-i,
    made by repeated halving from alpha_s = min(1, ``_STEP_NORM_CAP`` /
    |grad|), and accepts the one of least index i that passes the Armijo
    test with ``_ARMIJO_C1``; later searches start at a secant estimate
    along the previous ray and shrink it by ``_BACKTRACK`` until the test
    holds.  On a geodesically convex subproblem (``scale`` >= 0: the
    horofunction subproblem or g alone) the trial values along a ray are
    a convex function of the step, so the passing grid steps are
    contiguous, and the first search starts at index ``first_index``
    (an integer in [0, ``_MAX_HALVINGS``)), at alpha_s 2^-i by
    ``math.ldexp``: it halves on from there while trials fail, within
    the same ``_MAX_HALVINGS`` indices, or, if its first trial passes,
    doubles to i - 1, i - 2, ... while trials pass, and accepts the cold
    search's step bit for bit.  It starts at index 0 (cold) on the
    classic subproblem, whose term need not be convex, and wherever
    ``_ARMIJO_C1`` alpha_i |grad|^2 at ``first_index`` is below the
    representable decrease 8 eps (1 + |f|), where a skipped trial could
    have met the floored test (``notes/decisions.md``).  Each accepted
    iterate p, the start included, prepares one ray
    ``manifold._ray(p, -grad)``, whose
    ``speed`` is the gradient norm, and every trial from p is one
    ``ray.step(alpha)``, the checked point of exp_p(-alpha grad), so the
    trials from one iterate share what the ray prepared (on SPD, one
    eigendecomposition).  Stops when the subproblem gradient norm
    drops to max(``tol``, ``_INNER_TOL_FACTOR`` |grad| at ``start``) (at
    p_k the subproblem's gradient is grad phi(p_k), and its decrease
    bounds phi's, so a rough solve far from stationarity is enough),
    after ``_MAX_INNER_ITERS`` steps, or when a line search ends without
    a step.  A search ends so in one of two ways, which share one exit:
    a trial is floored (the sufficient-decrease test falls below
    double-precision resolution of the objective while the gradient is
    at most 1e3 ``tol``, so the point is as converged as evaluations
    allow), or the search runs out of ``_MAX_HALVINGS`` halvings.  The
    solve then returns its current iterate, ``start`` with no step if
    it was the first search.  Raises StalledInnerSolveError instead if
    the first line search runs out of halvings with a gradient above
    1e3 ``tol``.
    ``start``, unless it is a point already, and every trial point (in
    ``step``) are validated and made points, so the objective only sees
    checked points; the accepted iterate is not checked again when a
    trial steps from it.  ``tol`` must be finite and positive.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"inner tolerance must be finite and > 0: {tol}")
    if check_count(first_index, "first_index", least=0) >= _MAX_HALVINGS:
        raise ValidationError(
            f"first_index must be < {_MAX_HALVINGS}: {first_index!r}")
    manifold = objective.problem.manifold
    p = manifold.point(start)
    fp = objective.value(p)
    ray = manifold._ray(p, -objective.grad(p))
    gn = ray.speed
    stop = max(tol, _INNER_TOL_FACTOR * gn)
    iters = 0
    alpha_prev = None
    eps_mach = float(np.finfo(float).eps)
    convex = objective.scale >= 0.0

    while gn > stop and iters < _MAX_INNER_ITERS:
        decrease_floor = 8.0 * eps_mach * (1.0 + abs(fp))
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

        start_index = 0
        if alpha_prev is None and convex and first_index > 0:
            # alpha_s 2^-i, the step that i halvings by _BACKTRACK = 1/2
            # reach: scaling by a power of two is exact
            warm = math.ldexp(alpha, -first_index)
            if _ARMIJO_C1 * warm * gn * gn >= decrease_floor:
                start_index, alpha = first_index, warm
        for index in range(start_index, _MAX_HALVINGS):
            required = _ARMIJO_C1 * alpha * gn * gn
            cand, fc = _trial(ray, objective, alpha)
            if _sufficient(fp, fc, required, decrease_floor):
                break
            if required < decrease_floor and gn <= 1e3 * tol \
                    and math.isfinite(fc) and abs(fp - fc) <= decrease_floor:
                # the required decrease is no longer representable in the
                # objective values and the gradient is already near the
                # target: converged to evaluation precision
                cand = None
                break
            alpha *= _BACKTRACK
        else:
            if iters == 0 and gn > 1e3 * tol:
                raise StalledInnerSolveError(
                    f"line search stalled after {_MAX_HALVINGS} halvings "
                    f"(grad norm {gn:.3g}, tol {tol:.3g})",
                    best_point=p.x, best_value=fp)
            # after progress, or on the noise floor near the target (the
            # floored test's guard), the outer tests judge this point
            logger.debug("inner solve stalled after %d iterations "
                         "(grad norm %.3g)", iters, gn)
            cand = None
        if cand is None:            # no step: floored or out of halvings
            break
        if 0 < index == start_index:
            # a warm start that passed climbs while the trials pass, to
            # the passing step of least index: the cold search's step
            while index:
                up = 2.0 * alpha
                cand_up, fc_up = _trial(ray, objective, up)
                if not _sufficient(fp, fc_up, _ARMIJO_C1 * up * gn * gn,
                                   decrease_floor):
                    break
                cand, fc, alpha, index = cand_up, fc_up, up, index - 1

        if alpha_prev is None:
            first_index = index
        fp_prev, gn_prev, alpha_prev = fp, gn, alpha
        p, fp = cand, fc
        ray = manifold._ray(p, -objective.grad(p))
        gn = ray.speed
        iters += 1

    return p, iters, first_index


def run_dca(problem: DCProblem, p0, cfg: SolverConfig) -> SolverTrace:
    """Outer loop shared by both linearizations.

    Per iteration: take s_k in the subdifferential of h at p_k, build the
    subproblem selected by ``cfg.algorithm``, and inner-solve it from p_k,
    passing the grid index that the previous inner solve's first line
    search accepted (0 at p0), where ``inner_solve`` starts its first
    search on a convex subproblem.

    The run is scaled by gamma = 1/(|grad phi(p0)| + 1): the solver
    behaves as if it minimized gamma * phi with tolerance
    eps = gamma * eps_base.  Gradient norms in the trace are therefore
    the scaled gamma * |grad phi(p_k)| (so the gradient stop
    gamma * |grad phi| <= eps is |grad phi| <= eps_base), while step
    distances are manifold distances compared against eps directly.
    A short step alone does not certify criticality on smooth problems,
    so the step exit additionally requires the gradient test at the new
    iterate.  Each iterate is one point, checked once (p0 here, every
    later one as a trial of the inner solve that reached it), which keeps
    g, grad g and the one subgradient s_k of h taken there: phi = g - h,
    the gradient test grad g - s_k, the subproblem and the next inner
    solve share them.  A non-smooth problem takes s_k only where a
    subproblem is built.  Each inner solve runs with tolerance
    ``_INNER_TOL_FACTOR`` eps_base, which it raises to
    ``_INNER_TOL_FACTOR`` |grad phi(p_k)| far from stationarity.  An
    inner solve that takes no step (a floored or noise-floor first
    search) ends the run as "fixed_point"; any other stalled first line
    search raises StalledInnerSolveError with the partial trace as
    ``exc.trace``.
    """
    manifold = problem.manifold
    p = manifold.point(p0)
    smooth = problem.g_rgrad is not None
    gamma = scale_factor(problem, p) if smooth else 1.0
    eps = gamma * cfg.eps_base
    inner_tol = _INNER_TOL_FACTOR * cfg.eps_base
    make = make_cr_subproblem if cfg.algorithm == "cr_dca" else make_b_subproblem

    def phi_and_tests(p):
        # (phi(p), gamma |grad phi(p)|), inf where there is no gradient test
        return problem.phi(p), \
            gamma * _grad_norm(problem, p) if smooth else math.inf

    trace = SolverTrace(gamma=gamma, eps=eps, algorithm=cfg.algorithm,
                        problem=problem.name)
    t0 = time.perf_counter()
    fp, gn = phi_and_tests(p)

    def record(inner_iters=0, step_dist=0.0):
        trace.records.append(IterationRecord(
            k=len(trace.records), point=p.x, fval=fp, grad_norm=gn,
            inner_iters=inner_iters, step_dist=step_dist,
            elapsed_s=time.perf_counter() - t0))

    stall = None
    first_index = 0                 # of the last inner solve's first search
    while True:
        if gn <= eps:
            trace.exit_reason = "grad"
            break
        if len(trace.records) >= cfg.max_outer:
            trace.exit_reason = "max_outer"
            break
        objective = make(problem, p, p.derived(problem.h_subgrad))
        try:
            p_next, n_inner, first_index = inner_solve(
                objective, p, inner_tol, first_index)
        except StalledInnerSolveError as exc:
            trace.exit_reason = "stalled"
            stall = exc
            break
        step = manifold._dist(p.x, p_next)
        record(n_inner, step)
        p = p_next
        fp, gn = phi_and_tests(p)
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

    Returns (ok, witness) where witness is the first violating N.  A step
    or a bound that is not finite is a violation.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"complexity bound needs a finite sigma > 0: {sigma}")
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
        if not (math.isfinite(d) and math.isfinite(bound)
                and running_min <= bound + 1e-12):
            return False, n
    return True, None
