"""Geometry-agnostic Busemann oracles and convex-analysis verifiers.

The limit oracle evaluates the defining expressions

    difference mode:  d(p, exp_q(t v)) - t |v|
    quotient mode:    (d^2(p, exp_q(t v)) - (t |v|)^2) / (2 t |v|)

along an increasing schedule of ray parameters.  Both raw sequences
approach the Busemann value with a leading 1/t bias (the flat quotient is
exactly value + c/t), so the per-anchor estimate pairs consecutive
anchors through Richardson extrapolation in 1/t, which is exact on flat
geometries and leaves only the exponentially small curvature terms
elsewhere.  When those terms have not yet died out at the last anchor
(nearly degenerate direction spectra on the SPD side), the schedule is
extended adaptively by doubling, until the estimates settle or a probe
leaves its numerical domain.

Each call prepares its ray once: the geometry's ``_ray_probe`` returns
the distance along the ray from p as a function of t, and every probe
of the schedule and its refinement evaluates that one object (on SPD
the eigendecompositions and the Cholesky factor are done when it is
built, and a probe costs one Jacobi SVD).  A probe that leaves its
numerical domain raises NumericalDomainError or OverflowError: that is
the one signal that stops refinement.  Nothing is kept between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError
from .geometry.base import BusemannRay, check_count, direction_norm

DEFAULT_T_VALUES = (5.0, 10.0, 20.0, 30.0)


@dataclass(frozen=True)
class OracleSchedule:
    """Ray parameters for the limit oracle, strictly increasing."""

    t_values: tuple = DEFAULT_T_VALUES
    mode: str | None = None         # None picks the geometry default

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        if len(ts) == 0 or not all(0.0 < t < math.inf for t in ts):
            raise ValueError("schedule needs finite positive ray parameters")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("schedule must be strictly increasing")
        if self.mode not in (None, "difference", "quotient"):
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        object.__setattr__(self, "t_values", ts)


@dataclass
class OracleResult:
    """Limit-oracle output: final estimate plus the convergence trail."""

    value: float
    t_values: list
    raw_values: list
    estimates: list
    mode: str
    refined: bool
    converged: bool

    def increments(self):
        return [abs(b - a) for a, b in zip(self.estimates, self.estimates[1:])]

    def trend_ok(self, jitter=1e-12):
        """True when estimate increments shrink, up to rounding jitter."""
        inc = self.increments()
        return all(b <= a + jitter for a, b in zip(inc, inc[1:]))


def busemann_numeric(manifold, ray: BusemannRay, p, schedule=None,
                     refine_tol=1e-8, max_refine=6):
    """Numerically evaluate the Busemann limit of ``ray`` at ``p``.

    Independent of the closed forms: only the exponential map and the
    distance enter.  The direction is normalized first (the limit is
    invariant under positive scaling), so schedule entries are arc
    lengths along the ray.

    Refinement doubles the last ray parameter until two consecutive
    estimates agree within ``refine_tol``, after ``max_refine``
    doublings, or at the first probe that leaves its numerical domain
    by raising :class:`~hadamard_dc.errors.NumericalDomainError` or
    OverflowError (an exponential past its overflow guard, an SPD probe
    past t max|lam| = 1200 or with an underflowing singular value).
    That probe is dropped and the result reports ``converged=False``; a
    probe of the base schedule that leaves its domain raises.  On the
    SPD side the curvature terms decay like exp(-t * gap / 2) with
    ``gap`` the smallest relative spectral gap of the direction;
    directions with gap below ~5e-3 cannot settle before the probes
    leave their domain.
    Raises ValueError unless 0 <= ``refine_tol`` < inf and ``max_refine``
    is an integer >= 0.
    """
    if not 0.0 <= refine_tol < math.inf:
        raise ValueError(
            f"refine_tol must be finite and >= 0: {refine_tol!r}")
    max_refine = check_count(max_refine, "max_refine", least=0)
    q = manifold.point(ray.base)
    v = manifold.check_tangent(q, ray.direction)
    p = manifold.point(p)
    vhat = v / direction_norm(manifold, q, v)
    schedule = schedule or OracleSchedule()
    mode = schedule.mode or manifold.oracle_mode_default
    probe = manifold._ray_probe(q, vhat, p)

    def raw(t):
        try:
            d = probe.distance(t)
        except OverflowError as exc:
            raise OverflowError(
                f"limit probe overflowed at ray parameter t={t:g}: {exc}"
            ) from exc
        if mode == "difference":
            return d - t
        return (d * d - t * t) / (2.0 * t)

    ts = list(schedule.t_values)
    raws = [raw(t) for t in ts]

    def richardson(i):      # the anchors i-1 and i extrapolated in 1/t
        return (ts[i] * raws[i] - ts[i - 1] * raws[i - 1]) \
            / (ts[i] - ts[i - 1])

    estimates = [raws[0]] + [richardson(i) for i in range(1, len(ts))]

    refined = False
    for _ in range(max_refine):
        if len(estimates) >= 2 and \
                abs(estimates[-1] - estimates[-2]) <= refine_tol:
            break
        t_next = 2.0 * ts[-1]
        try:
            raw_next = raw(t_next)
        except (NumericalDomainError, OverflowError):
            # the estimates have not settled, so the result is unconverged
            break
        ts.append(t_next)
        raws.append(raw_next)
        estimates.append(richardson(len(ts) - 1))
        refined = True

    converged = len(estimates) < 2 or \
        abs(estimates[-1] - estimates[-2]) <= refine_tol
    return OracleResult(value=float(estimates[-1]), t_values=ts,
                        raw_values=raws, estimates=estimates, mode=mode,
                        refined=refined, converged=converged)


# ----------------------------------------------------------------------
# subdifferential support inequality
# ----------------------------------------------------------------------

@dataclass
class SupportCheckReport:
    """Sampled verification of the Busemann support inequality

        f(p) >= f(q) - |s| B_{q,s}(p) + (sigma/2) d^2(p, q).
    """

    samples: int
    max_violation: float
    slack: float
    violations: int
    witness: object = None

    @property
    def passed(self):
        return self.violations == 0


def support_check(manifold, f, subgrad, sigma, q, samples, rng,
                  radius=5.0, slack=1e-9):
    """Check the support inequality for ``f`` at ``q`` over random points.

    ``subgrad`` maps a point to an element of the subdifferential there.
    Sample points are drawn within geodesic distance ``radius`` of ``q``
    by ``manifold.random_point_near``.  A sample violates when the
    right-hand side exceeds f(p) by more than ``slack``, or when their
    gap is not finite (then reported as inf).  ``f`` and
    ``subgrad`` take arrays.  |s| B_{q,s} is ``Manifold._support_term``.
    Raises ValueError unless ``samples`` is an integer >= 1 and
    ``sigma``, ``radius`` and ``slack`` are finite and >= 0.
    """
    samples = check_count(samples, "samples")
    if not (0.0 <= sigma < math.inf and 0.0 <= radius < math.inf
            and 0.0 <= slack < math.inf):
        raise ValueError("support check needs a finite sigma, radius and "
                         f"slack >= 0: {sigma}, {radius}, {slack}")
    q = manifold.point(q)
    term, scale = manifold._support_term(
        q, manifold.check_tangent(q, subgrad(q.x)))
    fq = f(q.x)
    worst = -np.inf
    witness = None
    violations = 0
    for _ in range(samples):
        x = manifold.random_point_near(q, radius, rng)
        p = manifold.point(x)
        support = 0.0 if term is None else scale * term.value(p)
        rhs = fq - support + 0.5 * sigma * manifold._dist(p, q) ** 2
        gap = rhs - f(x)
        if not math.isfinite(gap):      # f or the support is not finite
            gap = math.inf
        if gap > worst:
            worst = gap
            witness = x
        if gap > slack:
            violations += 1
    return SupportCheckReport(samples=samples, max_violation=float(worst),
                              slack=slack, violations=violations,
                              witness=witness if violations else None)


def lipschitz_subgrad_bound_check(manifold, f, lipschitz_const, q, s):
    """Subgradients of an L-Lipschitz convex function have norm <= L.

    Checks q and s once each; ValueError unless 0 <= L < inf."""
    if not 0.0 <= lipschitz_const < math.inf:
        raise ValueError("Lipschitz bound needs a finite constant >= 0: "
                         f"{lipschitz_const}")
    return manifold.norm(q, s) <= lipschitz_const + 1e-10


# ----------------------------------------------------------------------
# Bregman divergence built on the Busemann support
# ----------------------------------------------------------------------

def bregman_busemann(manifold, psi, psi_grad, p, q):
    """D(p, q) = psi(p) - psi(q) + |grad psi(q)| B_{q, grad psi(q)}(p).

    When grad psi(q) = 0 the product is defined as 0, keeping D continuous
    in the gradient and equal to the plain difference psi(p) - psi(q).
    ``psi`` and ``psi_grad`` take arrays.
    """
    p = manifold.point(p)
    q = manifold.point(q)
    term, scale = manifold._support_term(
        q, manifold.check_tangent(q, psi_grad(q.x)))
    support = 0.0 if term is None else scale * term.value(p)
    return float(psi(p.x) - psi(q.x) + support)
