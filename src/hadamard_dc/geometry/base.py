"""Manifold interface shared by all geometries.

Points and tangent vectors are numpy arrays whose interpretation is
owned by the manifold object (vectors for the flat and hyperbolic
geometries, symmetric matrices for the SPD geometry).  Validation happens
at the public boundary:

* public methods validate every argument on every call and raise
  :class:`~hadamard_dc.errors.ValidationError` naming the violated
  constraint;
* the ``_``-prefixed kernels behind them validate nothing and are for
  callers that already hold validated values;
* an array is never trusted for having been checked before, so an array
  mutated after a check is checked again on its next public call.

Every point argument of a kernel is a :class:`Point`; the distance
``_dist(p, q)`` takes what derives from a point (SPD: the factor of Q)
from ``q``.  A point is a checked array together with what derives from
it, each computed on first use and kept with the point:

* ``Manifold._point(x)`` wraps an array right after ``check_point``;
  the solver builds one for p0, and the public methods one per point
  argument.
  A line search runs along ``Manifold._ray(p, d)``, the geodesic
  t -> exp_p(t d) prepared once: its ``speed`` is |d|_p, and a trial is
  its ``step(t)``, the checked point of exp_p(t d).  By default that is
  ``_point(check_point(_exp(p, t d)))``; the hyperboloid runs the same
  exponential and sheet tests with the largest |coordinate| taken once,
  and SPD diagonalizes L^-1 D L^-T once per ray, so that a step is one
  product and the Cholesky test of ``check_point``.
  ``Manifold.point(x)``, the one gate for points, checks an array (or
  another manifold's point) and passes a point of the same manifold
  through, so a point is trusted because of its type, never because of
  its address or contents.  Every public method, ``check_tangent``
  included, takes each of its point arguments through it.
* A geometry keeps there what its kernels take from a base point: SPD
  keeps a factor A of X = A A^T and its inverse (``SPDPoint.factor``),
  which all its kernels at X share; every SPD formula holds for any such
  factor, and the one kept is the lower Cholesky factor L, which a
  line-search trial's Cholesky test hands to its point.
* ``Point.derived(make)`` keeps ``make(point)`` under ``make``: the
  solver keeps g, grad g and the subgradient of h there, the problem
  closures their shared work (Rosenbrock's distances and logs, ln det X,
  the stacked spectrum of an SPD distance sum), and a model term what
  its gradient reuses from its value (the SPD horofunction's Cholesky
  factor, the SPD linear model's eigendecomposition of C X C).

What is kept between evaluations is otherwise preparation for a fixed
ray or linearization point, never a result looked up by the identity or
content of an array:

* ``_horofunction(q, v)`` and ``_linear_model(q, s)`` take a point and a
  validated direction and return a horofunction or a :class:`LinearModel`
  whose ``value``/``grad`` evaluate at points.  Geometries with fixed work
  per ray or linearization point (SPD: the spectral split and the
  products with the factor; hyperboloid: |v| and the horocenter w) do that
  work once, when the object is built; the solver builds one per outer
  step and its subproblem owns it.  The public ``busemann``,
  ``busemann_grad`` and ``linear_model_grad`` evaluate the same object, so
  they and the solver run one code path; the generic linear model calls
  the per-call kernel ``_linear_model_grad``.
* Callers decide a zero direction with the array test
  ``zero_direction(v)``, |v|_F == 0: ``busemann``/``busemann_grad`` return
  B_{q,0} = d(q, .) and its gradient, and ``_support_term(q, s)``, the
  model (term, scale) = (B_{q,s}, |s|_q) of h that the horofunction
  subproblem and the support checks share, returns (None, 0.0), the
  zero term.  ``_horofunction(q, v)`` raises ZeroDirectionError where
  |v|_q rounds to 0; the horofunction keeps that |v|_q as its ``norm``,
  which is the scale of ``_support_term``, so |s|_q is computed once.
  On flat geometries (:class:`FlatManifold`) B_{q,v}(p) =
  -<v, log_q p>_q / |v|_q, the scaled linear model, evaluated by
  :class:`FlatHorofunction`.
* ``_ray_probe(q, u, p)`` returns a :class:`RayProbe` of a validated
  ray (q, unit direction u) and point p: ``distance(t)`` = d(p,
  exp_q(t u)), which raises NumericalDomainError or OverflowError where
  the probe leaves its numerical domain.  The limit oracle builds one
  per call and probes it at every ray parameter of its schedule, and
  stops refining at the first probe that raises.  SPD computes the
  spectrum of L^-1 V L^-T and the Cholesky factor of the reduced point
  once in it; every other geometry uses the generic form, which calls
  ``_exp``, ``_point`` and ``_dist`` per probe, so that a probe raises
  where the exponential does.

All operations are pure functions of their arguments, so parallel
callers need no synchronization as long as they do not share a point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import (NumericalDomainError, UndefinedGradientError,
                      ValidationError, ZeroDirectionError)


@dataclass(frozen=True)
class BusemannRay:
    """Base point plus tangent direction of a geodesic ray.

    The direction may be zero, in which case the associated horofunction
    degenerates to the distance from the base point.
    """

    base: np.ndarray
    direction: np.ndarray


def check_count(value, what, least=1):
    """``value``, an integer count such as a dimension, as an int;
    ValidationError naming ``what`` unless it is an integer >= ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValidationError(f"{what} must be an integer >= {least}: "
                              f"{value!r}")
    return int(value)


def zero_direction(v):
    """Whether ``np.linalg.norm(v) == 0.0`` for a validated direction:
    an entry of at least 1e-150 squares above the underflow, so the norm
    is formed only below that, where it cannot overflow."""
    return np.abs(v).max() < 1e-150 and np.linalg.norm(v) == 0.0


def direction_norm(manifold, q, v):
    """|v|_q of a validated v != 0; ZeroDirectionError where it rounds to 0."""
    nv = manifold._norm(q, v)
    if nv == 0.0:
        raise ZeroDirectionError(f"{manifold.name}: |v|_q rounds to 0")
    return nv


_MISSING = object()


class Point:
    """A point of ``manifold`` that passed its ``check_point``, and what
    derives from it, each computed on first use and kept with the point.

    ``Manifold._point`` builds one from an array that was just checked,
    so a point is trusted because of its type: ``Manifold.point``, the
    one gate for point arguments, checks an array once and passes a point
    of its manifold through.  ``x`` is the checked array; do not mutate it.
    ``derived(make)`` is ``make(self)``, computed on the first request and
    kept under ``make``: a problem closure, g or its gradient, or a bound
    method of a subproblem term.  The point keeps each ``make`` alive with
    it, so a ``make`` must hold no iterate, which it would keep alive with
    all it derived; a fixed point, such as a problem's reference point,
    costs nothing per step.  A geometry adds what every
    consumer takes from a point (SPD: ``factor``, L and L^-1 with
    L L^T = X).
    """

    __slots__ = ("manifold", "x", "_derived")

    def __init__(self, manifold, x):
        self.manifold = manifold
        self.x = x
        self._derived = {}

    def derived(self, make):
        value = self._derived.get(make, _MISSING)
        if value is _MISSING:
            value = self._derived[make] = make(self)
        return value


class FlatHorofunction:
    """Busemann function B_{q,v} of one validated ray with v != 0 on a flat
    geometry, as ``value(p)`` and ``grad(p)`` of points, and ``norm`` =
    |v|_q.

    With zero curvature B_{q,v}(p) = -<v, log_q p>_q / |v|_q, so this is the
    geometry's linear model of (q, v) divided by -|v|_q.
    """

    def __init__(self, manifold, q, v):
        self.model = manifold._linear_model(q, v)
        self.norm = direction_norm(manifold, q, v)

    def value(self, p):
        return -self.model.value(p) / self.norm

    def grad(self, p):
        return -self.model.grad(p) / self.norm


class LinearModel:
    """Linearization term p -> <s, log_q p>_q of the classic subproblem,
    for a point ``q`` and validated ``s``, as ``value(p)`` and ``grad(p)``
    of points.

    This form calls the kernels on every evaluation; a geometry with fixed
    per-(q, s) work returns its own model from ``_linear_model``.
    """

    def __init__(self, manifold, q, s):
        self.manifold = manifold
        self.q = q
        self.s = s

    def value(self, p):
        m = self.manifold
        return m._inner(self.q, self.s, m._log(self.q, p))

    def grad(self, p):
        return self.manifold._linear_model_grad(self.q, self.s, p)


class Ray:
    """The geodesic t -> exp_p(t d) of a point p and a validated direction
    d, prepared for one line search along it: ``speed`` = |d|_p, and
    ``step(t)``, the checked :class:`Point` of exp_p(t d), which raises as
    ``_exp`` and ``check_point`` do.

    This form calls ``_exp`` and ``check_point`` on every step; a geometry
    with fixed work per ray, or a cheaper test of its trial points,
    returns its own ray from ``_ray``.
    """

    __slots__ = ("manifold", "p", "d", "speed")

    def __init__(self, manifold, p, d):
        self.manifold = manifold
        self.p = p
        self.d = d
        self.speed = manifold._norm(p, d)

    def step(self, t):
        m = self.manifold
        return m._point(m.check_point(m._exp(self.p, t * self.d)))


class RayProbe:
    """Distance from a validated point p to the points of one validated
    ray (the point q, unit direction u), as ``distance(t)`` =
    d(p, exp_q(t u)), which raises NumericalDomainError or OverflowError
    where the probe leaves its numerical domain.

    This form calls ``_exp`` and ``_dist`` on every probe, with the ray's
    point made a :class:`Point`, so it raises where ``_exp`` does; a
    geometry with fixed work per ray and point returns a subclass from
    ``_ray_probe``.
    """

    def __init__(self, manifold, q, unit_dir, p):
        self.manifold = manifold
        self.q = q
        self.unit_dir = unit_dir
        self.p = p

    def distance(self, t):
        m = self.manifold
        return m._dist(self.p, m._point(m._exp(self.q, t * self.unit_dir)))


class Manifold:
    """Abstract Hadamard geometry.

    Subclasses provide validation, the unchecked kernels behind the public
    operations defined here, Euclidean-to-Riemannian gradient conversion,
    and seeded sampling.
    """

    name = "manifold"
    dim = 0                      # intrinsic dimension
    oracle_mode_default = "quotient"

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check_point(self, p):
        raise NotImplementedError

    def check_tangent(self, p, v):
        raise NotImplementedError

    def point(self, x):
        """``x`` as a :class:`Point`, the one gate for point arguments: a
        point of this manifold as it is, an array (or another manifold's
        point) after ``check_point``."""
        if isinstance(x, Point):
            if x.manifold is self:
                return x
            x = x.x
        return self._point(self.check_point(x))

    def _point(self, x):
        """The :class:`Point` of an array that passed ``check_point``."""
        return Point(self, x)

    def _as_array(self, x, what="array", shape=None):
        a = np.asarray(x, dtype=float)
        if not np.isfinite(a).all():
            raise ValidationError(
                f"{self.name}: {what} has non-finite entries")
        if shape is not None and a.shape != shape:
            raise ValidationError(
                f"{self.name}: {what} has shape {a.shape}, expected {shape}")
        return a

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def inner(self, p, u, v):
        p = self.point(p)
        return self._inner(p, self.check_tangent(p, u),
                           self.check_tangent(p, v))

    def norm(self, p, v):
        p = self.point(p)
        return self._norm(p, self.check_tangent(p, v))

    def _norm(self, p, v):
        return math.sqrt(max(self._inner(p, v, v), 0.0))

    def exp(self, p, v):
        p = self.point(p)
        return self._exp(p, self.check_tangent(p, v))

    def _ray(self, p, d):
        """The geodesic t -> exp_p(t d) of a point ``p`` and a validated
        ``d``, prepared for a line search along it: a :class:`Ray`."""
        return Ray(self, p, d)

    def log(self, p, q):
        return self._log(self.point(p), self.point(q))

    def dist(self, p, q):
        return self._dist(self.point(p), self.point(q))

    def project(self, p, x):
        """Project a finite ambient array onto the tangent space at ``p``."""
        raise NotImplementedError

    def zero_tangent(self, p):
        return np.zeros_like(self.point(p).x)

    def geodesic(self, p, q, t):
        """Point at parameter ``t`` on the geodesic from ``p`` to ``q``;
        ValidationError unless ``t`` is finite."""
        if not math.isfinite(t):
            raise ValidationError(
                f"{self.name}: geodesic parameter t must be finite: {t!r}")
        p = self.point(p)
        return self._exp(p, t * self._log(p, self.point(q)))

    # ------------------------------------------------------------------
    # Busemann functions
    # ------------------------------------------------------------------

    def busemann(self, ray: BusemannRay, p):
        q = self.point(ray.base)
        v = self.check_tangent(q, ray.direction)
        p = self.point(p)
        if zero_direction(v):
            return self._dist(p, q)
        return self._horofunction(q, v).value(p)

    def busemann_grad(self, ray: BusemannRay, p):
        q = self.point(ray.base)
        v = self.check_tangent(q, ray.direction)
        p = self.point(p)
        if zero_direction(v):
            return self._distance_gradient(q, p)
        return self._horofunction(q, v).grad(p)

    def _support_term(self, q, s):
        """(term, scale) = (B_{q,s}, |s|_q) of the point ``q`` and a
        validated ``s``, the horofunction prepared once and the scale the
        |s|_q it computed; (None, 0.0), the zero term, where s = 0 by the
        array test."""
        if zero_direction(s):
            return None, 0.0
        term = self._horofunction(q, s)
        return term, term.norm

    def _horofunction(self, q, v):
        """B_{q,v} of a ray from the point ``q`` with a validated direction,
        not ``zero_direction(v)``, as an object with ``value(p)`` and
        ``grad(p)`` of points and ``norm``, the |v|_q of ``_norm(q, v)``;
        raises ZeroDirectionError where |v|_q rounds to 0."""
        raise NotImplementedError

    def _distance_gradient(self, q, p):
        """Gradient of d(q, .) at the point ``p``, ``q`` a point; undefined
        at p = q."""
        d = self._dist(p, q)
        # SPD's d(q, q) rounds above 0
        if d == 0.0 or np.array_equal(p.x, q.x):
            raise UndefinedGradientError(
                f"{self.name}: gradient of a zero-direction ray is undefined "
                "at the base point")
        return -self._log(p, q) / d

    # ------------------------------------------------------------------
    # gradients and linear models
    # ------------------------------------------------------------------

    def egrad_to_rgrad(self, p, egrad):
        """Convert the Euclidean derivative of a scalar field at ``p`` into
        the Riemannian gradient."""
        raise NotImplementedError

    def linear_model_grad(self, q, s, p):
        """Gradient at ``p`` of the linearization term  p -> <s, log_q p>.

        ``s`` is a tangent vector at ``q``; the inner product is taken in
        the metric at ``q``.  The classic DC subproblem evaluates the same
        model, built by ``_linear_model``.  NumericalDomainError where the
        gradient is not finite.
        """
        q = self.point(q)
        s = self.check_tangent(q, s)
        p = self.point(p)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = self._linear_model(q, s).grad(p)
        if not np.isfinite(grad).all():
            raise NumericalDomainError(
                f"{self.name}: the linear model gradient is not finite")
        return grad

    def _linear_model(self, q, s):
        """p -> <s, log_q p> for a point ``q`` and a validated ``s``,
        prepared for repeated evaluation at points."""
        return LinearModel(self, q, s)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, p, rng):
        raise NotImplementedError

    def random_point_near(self, center, radius, rng):
        """exp_c((r/|w|_c) w) for a random tangent w at ``center`` and r
        drawn from ``rng.uniform(0, radius)`` after w: a random point
        within distance ``radius``, ``center`` itself if w = 0.
        ValidationError unless 0 <= radius < inf, before any draw."""
        if not 0.0 <= radius < math.inf:
            raise ValidationError(
                f"{self.name}: radius must be finite and >= 0: {radius!r}")
        c = self.point(center)
        w = self.random_tangent(c, rng)
        r = rng.uniform(0.0, abs(radius))      # -0.0 draws as 0.0
        nw = self._norm(c, w)
        if nw == 0.0:
            return c.x.copy()
        return self._exp(c, (r / nw) * w)

    # ------------------------------------------------------------------
    # finite-difference support
    # ------------------------------------------------------------------

    def coordinate_directions(self):
        """Ambient coordinate directions spanning the tangent spaces."""
        raise NotImplementedError

    def rep_scale(self, p):
        """Representation scale of ``p``, used to pick finite-difference
        step sizes."""
        return float(np.linalg.norm(self.point(p).x))

    def tangent_basis(self, p):
        """Orthonormal tangent basis at ``p`` under the manifold metric.

        Gram-Schmidt over the projected ambient coordinate directions;
        near-dependent candidates are dropped.
        """
        p = self.point(p)
        basis = []
        for cand in self.coordinate_directions():
            v = self.project(p, cand)
            for b in basis:
                v = v - self._inner(p, v, b) * b
            nv = self._norm(p, v)
            if nv > 1e-10:
                basis.append(v / nv)
            if len(basis) == self.dim:
                break
        if len(basis) != self.dim:
            raise ValidationError(
                f"{self.name}: tangent basis construction found "
                f"{len(basis)} of {self.dim} directions")
        return basis

    # ------------------------------------------------------------------
    # oracle support (numerical Busemann limit)
    # ------------------------------------------------------------------

    def _ray_probe(self, q, unit_dir, p):
        """d(p, exp_q(t * unit_dir)) of one ray and point, prepared for
        the limit oracle's probes."""
        return RayProbe(self, q, unit_dir, p)


class FlatManifold(Manifold):
    """A flat geometry on an open subset of R^n, named ``kind(n)``, whose
    tangent space at every point is all of R^n: a tangent is any finite
    n-vector, the projection onto it the same test, and the Busemann
    function of a ray the scaled linear model, a
    :class:`FlatHorofunction`.  Subclasses set the class attribute
    ``kind`` and supply the metric kernels, ``check_point``,
    ``egrad_to_rgrad``, ``_linear_model_grad`` and the samplers."""

    def __init__(self, n):
        self.n = check_count(n, f"{self.kind}: dimension")
        self.dim = self.n
        self.name = f"{self.kind}({n})"

    def check_tangent(self, p, v):
        self.point(p)
        return self._as_array(v, "tangent", (self.n,))

    def project(self, p, x):
        return self.check_tangent(p, x)

    def _horofunction(self, q, v):
        return FlatHorofunction(self, q, v)

    def coordinate_directions(self):
        return iter(np.eye(self.n))


def fd_riemannian_grad(manifold, f, p, h=None):
    """Central-difference Riemannian gradient of a scalar field.

    Differences f(exp_p(h e_i)) - f(exp_p(-h e_i)) over an orthonormal
    tangent basis e_i, assembled back into a tangent vector.  Serves as
    the independent oracle for every closed-form gradient in the package.
    """
    p = manifold.point(p)
    if h is None:
        h = 1e-6 * (1.0 + manifold.rep_scale(p))
    if not 0.0 < h < math.inf:
        raise ValueError(f"finite-difference step must be finite and > 0: {h}")
    grad = manifold.zero_tangent(p)
    for e in manifold.tangent_basis(p):
        fp = f(manifold._exp(p, h * e))
        fm = f(manifold._exp(p, -h * e))
        grad = grad + ((fp - fm) / (2.0 * h)) * e
    return grad
