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
extended adaptively by doubling, within the geometry's overflow guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalDomainError, ZeroDirectionError
from .geometry.base import BusemannRay

DEFAULT_T_VALUES = (5.0, 10.0, 20.0, 30.0)


@dataclass(frozen=True)
class OracleSchedule:
    """Ray parameters for the limit oracle, strictly increasing."""

    t_values: tuple = DEFAULT_T_VALUES
    mode: str | None = None         # None picks the geometry default

    def __post_init__(self):
        ts = tuple(float(t) for t in self.t_values)
        if len(ts) == 0 or any(t <= 0 for t in ts):
            raise ValueError("schedule needs positive ray parameters")
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

    On the SPD side the curvature terms decay like exp(-t * gap / 2)
    with ``gap`` the smallest relative spectral gap of the direction;
    directions with gap below ~5e-3 cannot settle within the overflow
    guard, and the result reports ``converged=False``.  So does a
    refinement probe that leaves the numerical domain (a singular value
    underflowing far out on the ray); a probe of the base schedule that
    does so raises :class:`~hadamard_dc.errors.NumericalDomainError`.
    """
    q = manifold.check_point(ray.base)
    v = manifold.check_tangent(q, ray.direction)
    p = manifold.check_point(p)
    nv = manifold._norm(q, v)
    if nv == 0.0:
        raise ZeroDirectionError(
            "limit oracle needs a nonzero ray direction")
    vhat = v / nv
    schedule = schedule or OracleSchedule()
    mode = schedule.mode or manifold.oracle_mode_default

    def raw(t):
        try:
            d = manifold.ray_point_distance(q, vhat, t, p)
        except OverflowError as exc:
            raise OverflowError(
                f"limit probe overflowed at ray parameter t={t:g}: {exc}"
            ) from exc
        if mode == "difference":
            return d - t
        return (d * d - t * t) / (2.0 * t)

    ts = list(schedule.t_values)
    raws = [raw(t) for t in ts]
    estimates = [raws[0]]
    for i in range(1, len(ts)):
        estimates.append((ts[i] * raws[i] - ts[i - 1] * raws[i - 1])
                         / (ts[i] - ts[i - 1]))

    guard = manifold.oracle_t_guard(q, vhat)
    refined = False
    for _ in range(max_refine):
        if len(estimates) >= 2 and \
                abs(estimates[-1] - estimates[-2]) <= refine_tol:
            break
        t_next = 2.0 * ts[-1]
        if t_next > guard:
            break
        try:
            raw_next = raw(t_next)
        except NumericalDomainError:
            # the estimates have not settled, so the result is unconverged
            break
        ts.append(t_next)
        raws.append(raw_next)
        estimates.append((ts[-1] * raws[-1] - ts[-2] * raws[-2])
                         / (ts[-1] - ts[-2]))
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


def _bounded_sample(manifold, q, radius, rng):
    w = manifold.random_tangent(q, rng)
    nw = manifold.norm(q, w)
    if nw == 0.0:
        return q
    r = rng.uniform(0.0, radius)
    return manifold.exp(q, (r / nw) * w)


def support_check(manifold, f, subgrad, sigma, q, samples, rng,
                  radius=5.0, slack=1e-9):
    """Check the support inequality for ``f`` at ``q`` over random points.

    ``subgrad`` maps a point to an element of the subdifferential there.
    Sample points are drawn within geodesic distance ``radius`` of ``q``.
    A sample violates when the right-hand side exceeds f(p) by more than
    ``slack``.
    """
    q = manifold.check_point(q)
    s = subgrad(q)
    ns = manifold.norm(q, s)
    fq = f(q)
    ray = BusemannRay(q, s)
    worst = -np.inf
    witness = None
    violations = 0
    for _ in range(samples):
        p = _bounded_sample(manifold, q, radius, rng)
        bus = manifold.busemann(ray, p) if ns > 0.0 else 0.0
        rhs = fq - ns * bus + 0.5 * sigma * manifold.dist(p, q) ** 2
        gap = rhs - f(p)
        if gap > worst:
            worst = gap
            witness = p
        if gap > slack:
            violations += 1
    return SupportCheckReport(samples=samples, max_violation=float(worst),
                              slack=slack, violations=violations,
                              witness=witness if violations else None)


def lipschitz_subgrad_bound_check(manifold, f, lipschitz_const, q, s):
    """Subgradients of an L-Lipschitz convex function have norm <= L."""
    q = manifold.check_point(q)
    s = manifold.check_tangent(q, s)
    return manifold.norm(q, s) <= lipschitz_const + 1e-10


# ----------------------------------------------------------------------
# Bregman divergence built on the Busemann support
# ----------------------------------------------------------------------

def bregman_busemann(manifold, psi, psi_grad, p, q):
    """D(p, q) = psi(p) - psi(q) + |grad psi(q)| B_{q, grad psi(q)}(p).

    When grad psi(q) = 0 the product is defined as 0, keeping D continuous
    in the gradient and equal to the plain difference psi(p) - psi(q).
    """
    p = manifold.check_point(p)
    q = manifold.check_point(q)
    g = psi_grad(q)
    ng = manifold.norm(q, g)
    base = psi(p) - psi(q)
    if ng == 0.0:
        return float(base)
    return float(base + ng * manifold.busemann(BusemannRay(q, g), p))
