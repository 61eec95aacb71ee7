"""Hyperboloid model of the curvature -kappa hyperbolic space.

Points live on the upper sheet { p in R^{n+1} : <p,p> = -1/kappa,
p_{n+1} > 0 } of the Lorentzian quadric, where <x,y> = x^T J y with
J = diag(1, ..., 1, -1).  Tangent vectors at p are Lorentz-orthogonal
to p; the Lorentzian form restricted to a tangent space is positive
definite, which makes all the usual metric machinery available.

Closed forms used here:

    d(p, q)      = arcosh(-kappa <p,q>) / sqrt(kappa)
    exp_q(v)     = cosh(sqrt(kappa)|v|) q + sinh(sqrt(kappa)|v|) v/(sqrt(kappa)|v|)
    log_q(p)     = d(q,p) * P / |P|,  P = p + kappa <q,p> q
    grad f(p)    = Proj_p(J f'(p)),   Proj_p x = x + kappa <p,x> p

and for a ray (q, v) with v != 0, writing w = kappa q + sqrt(kappa) v/|v|:

    B_{q,v}(p)       = ln(-<p, w>) / sqrt(kappa)
    grad B_{q,v}(p)  = Proj_p(w) / (sqrt(kappa) <p, w>)

The Busemann gradient has unit norm everywhere and equals -v/|v| at the
base point.  HyperboloidHorofunction computes |v| and w once per ray.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import NumericalDomainError, ValidationError
from .base import Manifold, Ray, RayProbe, check_count, direction_norm

_EXP_ARG_GUARD = 350.0      # cosh overflows doubles near 710; stay well below
_LARGE_ARCOSH = 1e8
_TINY = float(np.finfo(float).tiny)


def arcosh(x):
    """arcosh via the logarithm, accurate near 1 and safe for huge x."""
    if x <= 1.0:
        return 0.0
    if x > _LARGE_ARCOSH:
        return math.log(2.0 * x)
    xm1 = x - 1.0
    return math.log1p(xm1 + math.sqrt(xm1 * (x + 1.0)))


def _lorentz(x, y):
    """Lorentzian inner product x^T J y of two vectors of equal length."""
    return float(x.dot(y)) - 2.0 * float(x[-1]) * float(y[-1])


def _ucoef(beta):
    """arcosh(beta)/sqrt(beta^2 - 1), the distance-over-chord coefficient.

    Smooth on [1, inf) with value 1 at beta = 1; the series branch avoids
    the 0/0 cancellation near coincident points.
    """
    x = beta - 1.0
    if x < 1e-7:
        return 1.0 - x / 3.0
    return arcosh(beta) / math.sqrt(beta * beta - 1.0)


def _ucoef_deriv(beta):
    """Derivative of _ucoef with respect to beta."""
    x = beta - 1.0
    if x < 1e-7:
        return -1.0 / 3.0
    return (1.0 - beta * _ucoef(beta)) / (beta * beta - 1.0)


class Hyperboloid(Manifold):
    """n-dimensional hyperbolic space of constant curvature -kappa."""

    oracle_mode_default = "difference"

    def __init__(self, n, curvature=1.0):
        self.n = check_count(n, "hyperboloid: dimension")
        if not 0.0 < curvature < math.inf:
            raise ValidationError("hyperboloid: curvature parameter must be "
                                  f"finite and > 0: {curvature!r}")
        self.dim = self.n
        self.kappa = float(curvature)
        self.sqrt_kappa = math.sqrt(self.kappa)
        self.name = f"hyperbolic({n},{self.kappa:g})"

    # ------------------------------------------------------------------
    # Lorentzian algebra
    # ------------------------------------------------------------------

    def lorentz(self, x, y):
        """Lorentzian inner product x^T J y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.n + 1,) or y.shape != (self.n + 1,):
            raise ValidationError(
                f"{self.name}: vectors must have length {self.n + 1}")
        return _lorentz(x, y)

    def project(self, p, x):
        """Lorentzian projection x + kappa <p,x> p onto the tangent space."""
        x = np.asarray(x, dtype=float)
        return x + self.kappa * self.lorentz(p, x) * p

    def _project(self, p, x):
        return x + self.kappa * _lorentz(p, x) * p

    def apex(self):
        p = np.zeros(self.n + 1)
        p[-1] = 1.0 / self.sqrt_kappa
        return p

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_point(self, p):
        p = self._as_array(p, "point", (self.n + 1,))
        return self._on_sheet(p, float(np.abs(p).max()))

    def _on_sheet(self, x, top):
        """``x``, an array of the right shape whose largest |coordinate| is
        ``top``, after the quadric and upper-sheet tests of ``check_point``.
        """
        # check the quadric constraint on rescaled coordinates so that far
        # points (huge cosh factors) do not overflow the residual; the
        # negated comparisons also reject NaN coordinates
        s = max(1.0, top)
        ph = x / s
        residual = _lorentz(ph, ph) + 1.0 / (self.kappa * s * s)
        if not (abs(residual) <= 1e-8 * (1.0 + float(ph.dot(ph)))):
            raise ValidationError(
                f"{self.name}: point violates <p,p> = -1/kappa "
                f"(scaled residual {residual:.3g})")
        if not (x[-1] > 0.0):
            raise ValidationError(
                f"{self.name}: point must lie on the upper sheet "
                "(last coordinate > 0)")
        return x

    def check_tangent(self, p, v):
        v = self._as_array(v, "tangent", (self.n + 1,))
        p = self._as_array(p, "base point", (self.n + 1,))
        # hypot cannot overflow; near the double ceiling pair unit copies
        hp, hv = math.hypot(*p.tolist()), math.hypot(*v.tolist())
        if hp * hv > 1e300:
            pairing = _lorentz(p / hp, v / hv)
            scale = 1.0 / (hp * hv) + 1.0
        else:
            pairing = _lorentz(p, v)
            scale = 1.0 + hp * hv
        if not (abs(pairing) <= 1e-8 * scale):
            raise ValidationError(
                f"{self.name}: tangent violates <p,v> = 0 "
                f"(residual {pairing:.3g})")
        return v

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def _inner(self, p, u, v):
        return _lorentz(u, v)

    def _norm(self, p, v):
        return math.sqrt(max(_lorentz(v, v), 0.0))

    def _exp(self, p, v):
        return self._exp_top(p, v)[0]

    def _exp_top(self, p, v):
        """exp_p(v) and its largest |coordinate|."""
        nv = self._norm(p, v)
        p = p.x
        arg = self.sqrt_kappa * nv
        if arg > _EXP_ARG_GUARD:
            raise OverflowError(
                f"{self.name}: exponential map argument {arg:.3g} exceeds "
                f"the overflow guard {_EXP_ARG_GUARD:g}")
        if nv == 0.0:
            return p.copy(), float(np.abs(p).max())
        out = math.cosh(arg) * p + (math.sinh(arg) / arg) * v
        top = float(np.abs(out).max())
        # pull a drifted point back to <p,p> = -1/kappa; the quadratic form
        # carries cancellation noise of order eps * |p|^2, so renormalizing
        # is only a cleanup (not a distortion) near unit coordinate scale,
        # while the cosh/sinh combination is already relatively accurate.
        # Rounded division by c > 0 is monotone, so the largest coordinate
        # of out / c is top / c exactly
        if top > 1e2:
            return out, top
        c = math.sqrt(max(-self.kappa * _lorentz(out, out), _TINY))
        return out / c, top / c

    def _ray(self, p, d):
        return HyperboloidRay(self, p, d)

    def _log(self, q, p):
        # log_q p = d * P/|P| with P the projection of p; the ratio d/|P|
        # equals _ucoef(-kappa<q,p>), which stays finite as p -> q
        q = q.x
        qp = _lorentz(q, p)
        beta = max(-self.kappa * qp, 1.0)
        v = _ucoef(beta) * (p + self.kappa * qp * q)
        # clean rounding drift in the tangency constraint
        return self._project(q, v)

    def _dist(self, p, q):
        q = q.x
        arg = -self.kappa * _lorentz(p, q)
        if arg < 1.0 + 1e-4:
            # near-coincident points: the pairing cancels catastrophically,
            # but <p-q, p-q> = 2(arg-1)/kappa is exact in the difference
            diff = p - q
            x = max(0.5 * self.kappa * _lorentz(diff, diff), 0.0)
            return math.log1p(x + math.sqrt(x * (2.0 + x))) \
                / self.sqrt_kappa
        if arg <= _LARGE_ARCOSH:
            return arcosh(arg) / self.sqrt_kappa
        if math.isfinite(2.0 * arg):
            return math.log(2.0 * arg) / self.sqrt_kappa
        # far points overflow the raw pairing (or its double): rescale
        # coordinates and recover the arcosh in the log domain; the two
        # scale logs are summed first, so that dist(p, q) == dist(q, p)
        # exactly
        sp = max(1.0, float(np.abs(p).max()))
        sq = max(1.0, float(np.abs(q).max()))
        scaled = -self.kappa * _lorentz(p / sp, q / sq)
        return (math.log(2.0 * scaled) + (math.log(sp) + math.log(sq))) \
            / self.sqrt_kappa

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, p, egrad):
        """Riemannian gradient Proj_p(J g) from the Euclidean derivative g."""
        p = self._array(p)
        g = self._as_array(egrad, "euclidean gradient", (self.n + 1,))
        jg = g.copy()
        jg[-1] = -jg[-1]
        return self._project(p, jg)

    def _linear_model_grad(self, q, s, p):
        q = q.x
        beta = max(-self.kappa * _lorentz(q, p), 1.0)
        c = _ucoef(beta)
        dc = _ucoef_deriv(beta)
        w = _lorentz(s, p)
        ambient = -self.kappa * dc * w * q + c * s
        return self._project(p, ambient)

    # ------------------------------------------------------------------
    # Busemann function
    # ------------------------------------------------------------------

    def _horo_center(self, q, v, nv):
        return self.kappa * q + (self.sqrt_kappa / nv) * v

    def _horofunction(self, q, v):
        return HyperboloidHorofunction(self, q, v)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def random_point(self, rng):
        """Exponential of a tangent at the apex with norm uniform in [0, 3]."""
        apex = self.apex()
        g = rng.standard_normal(self.n + 1)
        g[-1] = 0.0                     # tangent space at the apex
        ng = np.linalg.norm(g)
        if ng == 0.0:
            return apex
        radius = rng.uniform(0.0, 3.0)
        return self._exp(self._point(apex), (radius / ng) * g)

    def random_tangent(self, p, rng):
        p = self._array(p)
        v = self._project(p, rng.standard_normal(self.n + 1))
        return self._project(p, v)

    def coordinate_directions(self):
        return iter(np.eye(self.n + 1))

    def _ray_probe(self, q, unit_dir, p):
        return RayProbe(self, q, unit_dir, p,
                        t_guard=_EXP_ARG_GUARD / self.sqrt_kappa)


class HyperboloidRay(Ray):
    """A ray whose steps run ``_exp_top`` and ``_on_sheet``: the
    exponential and sheet tests of ``check_point(_exp(p, t d))``, with the
    largest |coordinate| taken once."""

    __slots__ = ()

    def step(self, t):
        m = self.manifold
        return m._point(m._on_sheet(*m._exp_top(self.p, t * self.d)))


class HyperboloidHorofunction:
    """B_{q,v}, v != 0, with |v| and the horocenter w = kappa q +
    sqrt(kappa) v/|v| computed once.  An evaluation then costs one
    Lorentz pairing (and a projection for the gradient).
    """

    def __init__(self, manifold, q, v):
        self.manifold = manifold
        self.sqrt_kappa = manifold.sqrt_kappa
        self.w = manifold._horo_center(q.x, v, direction_norm(manifold, q, v))

    def value(self, p):
        p = p.x
        arg = -_lorentz(p, self.w)
        if arg <= 0.0:
            slack = 1e-12 * (1.0 + float(np.linalg.norm(p)) *
                             float(np.linalg.norm(self.w)))
            if arg < -slack:
                raise NumericalDomainError(
                    f"{self.manifold.name}: Busemann log argument {arg:.3g} "
                    "is negative beyond rounding slack")
            warnings.warn(
                f"{self.manifold.name}: Busemann log argument {arg:.3g} "
                "clamped to the machine floor", RuntimeWarning)
            arg = _TINY
        return math.log(arg) / self.sqrt_kappa

    def grad(self, p):
        m = self.manifold
        p = p.x
        grad = m._project(p, self.w) / (self.sqrt_kappa * _lorentz(p, self.w))
        return m._project(p, grad)
