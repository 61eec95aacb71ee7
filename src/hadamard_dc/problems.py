"""Benchmark DC problems: hyperbolic Rosenbrock, SPD academic, SPD contrastive.

Each constructor returns a ready-made :class:`~hadamard_dc.dc.DCProblem`
with analytic gradients and known-optimum metadata.  The problem closures
take a :class:`~hadamard_dc.geometry.base.Point`, which the solver has
validated, and pass points to the unchecked geometry kernels (the
Rosenbrock reference points are made points once); what several closures
need at one point (Rosenbrock's two distances and logs, ln det X, the
contrastive sums' spectra) they take from the point, which computes it
once.  Rosenbrock's metadata ``f`` takes an array, through ``point``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dc import DCProblem
from .errors import ValidationError
from .geometry import (Hyperboloid, SPDDistanceSum, SPDManifold,
                       cholesky_logdet)
from .geometry.base import check_count

logger = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# hyperbolic Rosenbrock family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RosenbrockParams:
    """Valley-shaped objective on the curvature -1 hyperbolic plane.

    f(p) = (a - d(p, pbar)^theta)^2 + b (d(p, qbar)^theta - d(p, pbar)^{2 theta})^2

    with reference points placed for internal or external tangency of the
    two minimizer spheres.  The canonical regimes are b = 100 (internal)
    and b = 2 (external), both with a = 1, theta = 1, n = 2.
    """

    a: float = 1.0
    b: float = 100.0
    theta: float = 1.0
    tangency: str = "internal"
    n: int = 2
    pbar: object = None         # optional reference-point overrides
    qbar: object = None

    def __post_init__(self):
        if not (0.0 < self.a < math.inf and 0.0 < self.b < math.inf):
            raise ValidationError("rosenbrock: a and b must be finite and positive")
        if not 1.0 <= self.theta < math.inf:
            raise ValidationError("rosenbrock: theta must be finite and >= 1")
        check_count(self.n, "rosenbrock: dimension")
        if self.tangency not in ("internal", "external"):
            raise ValidationError(
                f"rosenbrock: unknown tangency {self.tangency!r}")
        for name, ref, power in (("pbar", self.pbar, 1.0),
                                 ("qbar", self.qbar, 2.0)):
            if ref is None:
                try:
                    math.cosh(self.a ** (power / self.theta))
                except OverflowError:
                    raise ValidationError(
                        f"rosenbrock: the default {name} at radius "
                        f"a^({power:g}/theta) overflows; lower a or raise "
                        "theta") from None


def _axis_point(n, radius, sign=1.0):
    p = np.zeros(n + 1)
    p[0] = sign * math.sinh(radius)
    p[-1] = math.cosh(radius)
    return p


def rosenbrock_problem(params: RosenbrockParams = RosenbrockParams()) -> DCProblem:
    """Build the hyperbolic Rosenbrock DC instance.

    DC split:
        g = a^2 + d_p^{2t} + 2b d_q^{2t} + 2b d_p^{4t}
        h = 2a d_p^t + b (d_p^{2t} + d_q^t)^2
    where d_p, d_q are distances to the reference points and t = theta.
    """
    manifold = Hyperboloid(params.n, curvature=1.0)
    a, b, theta = params.a, params.b, params.theta
    r1 = a ** (1.0 / theta)
    r2 = a ** (2.0 / theta)
    if params.pbar is not None:
        pbar = manifold.check_point(np.asarray(params.pbar, dtype=float))
    else:
        pbar = _axis_point(params.n, r1)
    if params.qbar is not None:
        qbar = manifold.check_point(np.asarray(params.qbar, dtype=float))
    elif params.tangency == "internal":
        qbar = _axis_point(params.n, r2)
    else:
        qbar = _axis_point(params.n, r2, sign=-1.0)
    if params.pbar is None and params.qbar is None:
        # the axis points are on one geodesic; their Lorentz product
        # cancels terms of size e^(r1 + r2), so take the distance from the
        # radii
        dref = abs(r2 - r1) if params.tangency == "internal" else r1 + r2
    else:
        dref = manifold.dist(pbar, qbar)
    if not (r2 - r1 - 1e-12 <= dref <= r2 + r1 + 1e-12):
        raise ValidationError(
            f"rosenbrock: reference distance {dref:.6g} violates the "
            f"radii condition [{r2 - r1:.6g}, {r2 + r1:.6g}]")

    # every a = 1 internal instance has one reference point; d_q and
    # log_p(qbar) are then d_p and log_p(pbar) bit for bit
    one_ref = pbar.tobytes() == qbar.tobytes()
    # the kernels take points; the axis points lie on the sheet by
    # construction, the overrides were checked
    pbar_pt, qbar_pt = manifold._point(pbar), manifold._point(qbar)

    def _dists(p):
        dp = manifold._dist(p, pbar_pt)
        return dp, (dp if one_ref else manifold._dist(p, qbar_pt))

    def _sq_dist_grads(p):
        # gradients -2 log_p(ref) of d_p^2 and d_q^2
        gsq_p = -2.0 * manifold._log(p, pbar_pt)
        return gsq_p, (gsq_p if one_ref
                       else -2.0 * manifold._log(p, qbar_pt))

    def f(p):
        dp, dq = _dists(manifold.point(p))
        return (a - dp ** theta) ** 2 + b * (dq ** theta
                                             - dp ** (2 * theta)) ** 2

    def g(p):
        dp, dq = p.derived(_dists)
        return (a * a + dp ** (2 * theta) + 2 * b * dq ** (2 * theta)
                + 2 * b * dp ** (4 * theta))

    def h(p):
        dp, dq = p.derived(_dists)
        return (2 * a * dp ** theta
                + b * (dp ** (2 * theta) + dq ** theta) ** 2)

    def _pow_grad(d, gsq, alpha):
        # gradient of d^alpha from the shared d^2 gradient, with the zero
        # selection exactly at the center
        if d == 0.0:
            if alpha < 2.0:
                logger.warning("distance power %g hit its center exactly, "
                               "using the zero subgradient selection", alpha)
            return 0.0 * gsq
        if alpha == 2.0:
            return gsq
        return (0.5 * alpha) * d ** (alpha - 2.0) * gsq

    def g_rgrad(p):
        dp, dq = p.derived(_dists)
        gsq_p, gsq_q = p.derived(_sq_dist_grads)
        return (_pow_grad(dp, gsq_p, 2 * theta)
                + 2 * b * _pow_grad(dq, gsq_q, 2 * theta)
                + 2 * b * _pow_grad(dp, gsq_p, 4 * theta))

    def h_subgrad(p):
        dp, dq = p.derived(_dists)
        gsq_p, gsq_q = p.derived(_sq_dist_grads)
        u = dp ** (2 * theta) + dq ** theta
        return (2 * a * _pow_grad(dp, gsq_p, theta)
                + 2 * b * u * (_pow_grad(dp, gsq_p, 2 * theta)
                               + _pow_grad(dq, gsq_q, theta)))

    metadata = {
        "f": f,
        "f_star": 0.0,
        "pbar": pbar,
        "qbar": qbar,
        "radius_p": r1,
        "radius_q": r2,
        "tangency": params.tangency,
        "degenerate": bool(dref == 0.0),
    }
    if dref == 0.0:
        metadata["minimizer_set"] = f"sphere of radius {r1:g} about pbar"
    else:
        # tangency point of the two minimizer spheres, on the reference axis
        if params.tangency == "external":
            frac = r1 / (r1 + r2)
            metadata["minimizer"] = manifold.geodesic(pbar, qbar, frac)
        else:
            metadata["minimizer"] = manifold.exp(
                qbar, (r2 / dref) * manifold.log(qbar, pbar))
    return DCProblem(
        manifold=manifold, g=g, h=h, h_subgrad=h_subgrad, g_rgrad=g_rgrad,
        sigma=0.0, phi_inf=0.0,
        name=f"rosenbrock-{params.tangency}", metadata=metadata)


# ----------------------------------------------------------------------
# SPD academic objective
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class AcademicParams:
    """(ln det X)^4 - (ln det X)^2 on P(n), started from a fixed matrix."""

    n: int = 4

    def __post_init__(self):
        # the fixed start ln(n) I plus antidiagonal ones is positive
        # definite only where ln n > 1
        check_count(self.n, "academic: dimension", least=3)


def academic_problem(params: AcademicParams = AcademicParams()) -> DCProblem:
    """g = (ln det X)^4, h = (ln det X)^2; the global minimum is -1/4,
    attained whenever ln det X = +-1/sqrt(2)."""
    manifold = SPDManifold(params.n)
    n = params.n
    x0 = math.log(n) * np.eye(n)
    x0[0, -1] += 1.0
    x0[-1, 0] += 1.0
    manifold.check_point(x0)        # positive definite for n >= 3

    def _logdet(x):
        # ln det X from the point's Cholesky factor, which a trial point
        # has from its test
        return cholesky_logdet(x.lower)

    def g(x):
        return x.derived(_logdet) ** 4

    def h(x):
        return x.derived(_logdet) ** 2

    def g_rgrad(x):
        return (4.0 * x.derived(_logdet) ** 3) * x.x

    def h_subgrad(x):
        return (2.0 * x.derived(_logdet)) * x.x

    metadata = {
        "f_star": -0.25,
        "minimizer_logdet": (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
        "fixed_start": x0,
    }
    return DCProblem(
        manifold=manifold, g=g, h=h, h_subgrad=h_subgrad, g_rgrad=g_rgrad,
        sigma=0.0, phi_inf=-0.25,
        name=f"spd-academic-n{n}", metadata=metadata)


# ----------------------------------------------------------------------
# SPD contrastive objective
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ContrastiveParams:
    """Stay close to m positive references, far from r negative ones."""

    n: int = 5
    m: int = 5
    r: int = 1
    pos_weights: tuple = None
    neg_weights: tuple = None

    def __post_init__(self):
        check_count(self.n, "contrastive: dimension")
        check_count(self.m, "contrastive: positive reference count")
        check_count(self.r, "contrastive: negative reference count", least=0)


def contrastive_problem(params: ContrastiveParams, rng,
                        positives=None, negatives=None) -> DCProblem:
    """g = sum_i w+_i d^2(X, P_i), h = sum_j w-_j d^2(X, N_j).

    Reference matrices may be passed in; otherwise positives are sampled
    as geodesic perturbations (radius <= 0.5) of a common random center
    and negatives as independent perturbations of the same center with a
    wider radius (<= 1.0).  Co-locating the two groups keeps the weighted
    difference of squared distances well conditioned, so instances behave
    like the reference tables instead of drifting to far-away minimizers.
    """
    manifold = SPDManifold(params.n)
    wp = np.asarray(params.pos_weights if params.pos_weights is not None
                    else np.ones(params.m), dtype=float)
    wn = np.asarray(params.neg_weights if params.neg_weights is not None
                    else np.ones(params.r), dtype=float)
    if wp.shape != (params.m,) or not np.all((0.0 < wp) & (wp < np.inf)):
        raise ValidationError("contrastive: positive weights must be "
                              f"{params.m} finite positive reals")
    if wn.shape != (params.r,) or not np.all((0.0 < wn) & (wn < np.inf)):
        raise ValidationError("contrastive: negative weights must be "
                              f"{params.r} finite positive reals")

    if positives is None or negatives is None:
        center = manifold.point(manifold.random_point(rng))
        if positives is None:
            positives = [manifold.random_point_near(center, 0.5, rng)
                         for _ in range(params.m)]
        if negatives is None:
            negatives = [manifold.random_point_near(center, 1.0, rng)
                         for _ in range(params.r)]
    positives = [manifold.point(p) for p in positives]
    negatives = [manifold.point(q) for q in negatives]
    if len(positives) != params.m or len(negatives) != params.r:
        raise ValidationError("contrastive: reference counts do not match "
                              "the declared m, r")

    def sq_dist_sum(weights, refs):
        # sum_i w_i d^2(X, R_i) and its gradient -2 sum_i w_i log_X(R_i),
        # both from the one stacked spectrum that each point keeps and the
        # Cholesky factors of the references
        dist_sum = SPDDistanceSum(
            np.array([r.lower for r in refs], dtype=float)
            .reshape(-1, params.n, params.n), weights)
        return dist_sum.value, dist_sum.grad

    g, g_rgrad = sq_dist_sum(wp, positives)
    h, h_subgrad = sq_dist_sum(wn, negatives)

    sigma = 2.0 * min(float(np.sum(wp)), float(np.sum(wn))) if params.r \
        else 0.0
    metadata = {
        "positives": [p.x for p in positives],
        "negatives": [q.x for q in negatives],
        "pos_weights": wp,
        "neg_weights": wn,
    }
    if params.m == 1 and params.r == 0:
        metadata["minimizer"] = positives[0].x
        metadata["f_star"] = 0.0
    return DCProblem(
        manifold=manifold, g=g, h=h, h_subgrad=h_subgrad, g_rgrad=g_rgrad,
        sigma=sigma, phi_inf=None,
        name=f"spd-contrastive-n{params.n}-m{params.m}-r{params.r}",
        metadata=metadata)


def random_start(problem: DCProblem, rng):
    """Starting point for a benchmark run.

    The academic family always starts from its fixed matrix; the other
    families draw a seeded random point on the problem manifold.
    """
    fixed = problem.metadata.get("fixed_start")
    if fixed is not None:
        return fixed
    return problem.manifold.random_point(rng)
