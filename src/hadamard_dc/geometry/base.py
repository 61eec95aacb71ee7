"""Manifold interface shared by all geometries.

Points and tangent vectors are plain numpy arrays whose interpretation is
owned by the manifold object (vectors for the flat and hyperbolic
geometries, symmetric matrices for the SPD geometry).  Validation happens
at the public boundary:

* public methods validate every argument on every call and raise
  :class:`~hadamard_dc.errors.ValidationError` naming the violated
  constraint;
* the ``_``-prefixed kernels behind them (``_inner``, ``_norm``, ``_exp``,
  ``_exponential``, ``_log``, ``_dist``, ``_horofunction``,
  ``_linear_model``) validate nothing and are for callers that already
  hold validated values, as is the limit oracle's one hook,
  ``_ray_probe``;
* no array is trusted for having been checked before, so an array mutated
  after a check is checked again on its next public call.

What is kept between evaluations is preparation for a fixed point or ray,
never a result looked up by the identity or content of an array:

* ``_horofunction(q, v)`` and ``_linear_model(q, s)`` take a validated ray
  or linearization point and return a horofunction or a
  :class:`LinearModel` whose ``value``/``grad`` evaluate at validated
  points.  Geometries with fixed work per ray or linearization point
  (SPD: matrix roots and the spectral split; hyperboloid: |v| and the
  horocenter w) do that work once, when the object is built; the solver
  builds one per outer step and its subproblem owns it.  The public
  ``busemann``, ``busemann_grad`` and ``linear_model_grad`` evaluate the
  same object, so they and the solver run one code path; the generic
  linear model calls the per-call kernel ``_linear_model_grad``.
* Callers decide a zero direction with the array test
  ``np.linalg.norm(v) == 0.0``: ``busemann``/``busemann_grad`` return
  B_{q,0} = d(q, .) and its gradient, and the solver drops the term.
  ``_horofunction(q, v)`` raises ZeroDirectionError where |v|_q rounds to 0.
  On flat geometries B_{q,v}(p) = -<v, log_q p>_q / |v|_q, the scaled
  linear model, evaluated by :class:`FlatHorofunction`.
* ``_exponential(p)`` returns v -> exp_p(v) for a validated ``p``.  The
  solver builds one per line search, so every trial step from the same
  iterate shares it; SPD computes p^+-1/2 once in it, and the generic
  form calls ``_exp``.  Its trial points still go through
  ``check_point``.
* ``_ray_probe(q, u, p)`` returns a :class:`RayProbe` of a validated
  ray (q, unit direction u) and point p: ``distance(t)`` = d(p,
  exp_q(t u)) and the overflow guard ``t_guard``.  The limit oracle
  builds one per call and probes it at every ray parameter of its
  schedule.  SPD computes Y^-1/2, the spectrum of Y^-1/2 V Y^-1/2, the
  Cholesky factor of the reduced point and the guard once in it; the
  hyperboloid and the Dikin orthant supply only their guards, and the
  generic form calls ``_exp`` and ``_dist`` per probe.

Values of the objective are not kept here: the solver passes g(p) and
grad g(p) of the iterate it accepted from the inner solve to the outer
loop and into the next inner solve as arguments.

All operations are pure functions, so parallel callers need no
synchronization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import (UndefinedGradientError, ValidationError,
                      ZeroDirectionError)


@dataclass(frozen=True)
class BusemannRay:
    """Base point plus tangent direction of a geodesic ray.

    The direction may be zero, in which case the associated horofunction
    degenerates to the distance from the base point.
    """

    base: np.ndarray
    direction: np.ndarray


def direction_norm(manifold, q, v):
    """|v|_q of a validated v != 0; ZeroDirectionError where it rounds to 0."""
    nv = manifold._norm(q, v)
    if nv == 0.0:
        raise ZeroDirectionError(f"{manifold.name}: |v|_q rounds to 0")
    return nv


class FlatHorofunction:
    """Busemann function B_{q,v} of one validated ray with v != 0 on a flat
    geometry, as ``value(p)`` and ``grad(p)`` of validated points.

    With zero curvature B_{q,v}(p) = -<v, log_q p>_q / |v|_q, so this is the
    geometry's linear model of (q, v) divided by -|v|_q.
    """

    def __init__(self, manifold, q, v):
        self.model = manifold._linear_model(q, v)
        self.nv = direction_norm(manifold, q, v)

    def value(self, p):
        return -self.model.value(p) / self.nv

    def grad(self, p):
        return -self.model.grad(p) / self.nv


class LinearModel:
    """Linearization term p -> <s, log_q p>_q of the classic subproblem,
    for validated ``q`` and ``s``, as ``value(p)`` and ``grad(p)``.

    This form calls the kernels on every evaluation; a geometry with fixed
    per-(q, s) work returns a subclass from ``_linear_model``.
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


class RayProbe:
    """Distance from a validated point p to the points of one validated
    ray (q, unit direction u), as ``distance(t)`` = d(p, exp_q(t u)), and
    ``t_guard``, the largest ray parameter the limit oracle may use before
    overflow.

    This form calls ``_exp`` and ``_dist`` on every probe; a geometry with
    fixed work per ray and point, or with a tighter guard, returns a
    subclass or another guard from ``_ray_probe``.
    """

    def __init__(self, manifold, q, unit_dir, p, t_guard=1e12):
        self.manifold = manifold
        self.q = q
        self.unit_dir = unit_dir
        self.p = p
        self.t_guard = t_guard

    def distance(self, t):
        m = self.manifold
        return m._dist(self.p, m._exp(self.q, t * self.unit_dir))


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

    def _as_array(self, x, what="array"):
        a = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"{self.name}: {what} has non-finite entries")
        return a

    # ------------------------------------------------------------------
    # metric, exponential, logarithm
    # ------------------------------------------------------------------

    def inner(self, p, u, v):
        p = self.check_point(p)
        return self._inner(p, self.check_tangent(p, u),
                           self.check_tangent(p, v))

    def norm(self, p, v):
        p = self.check_point(p)
        return self._norm(p, self.check_tangent(p, v))

    def _norm(self, p, v):
        return math.sqrt(max(self._inner(p, v, v), 0.0))

    def exp(self, p, v):
        p = self.check_point(p)
        return self._exp(p, self.check_tangent(p, v))

    def _exponential(self, p):
        """v -> exp_p(v) for a validated ``p``, prepared for repeated
        evaluation along one line search."""
        return functools.partial(self._exp, p)

    def log(self, p, q):
        return self._log(self.check_point(p), self.check_point(q))

    def dist(self, p, q):
        return self._dist(self.check_point(p), self.check_point(q))

    def project(self, p, x):
        """Project an ambient array onto the tangent space at ``p``."""
        raise NotImplementedError

    def zero_tangent(self, p):
        return np.zeros_like(np.asarray(p, dtype=float))

    def geodesic(self, p, q, t):
        """Point at parameter ``t`` on the geodesic from ``p`` to ``q``."""
        p = self.check_point(p)
        return self._exp(p, t * self._log(p, self.check_point(q)))

    # ------------------------------------------------------------------
    # Busemann functions
    # ------------------------------------------------------------------

    def busemann(self, ray: BusemannRay, p):
        q = self.check_point(ray.base)
        v = self.check_tangent(q, ray.direction)
        p = self.check_point(p)
        if np.linalg.norm(v) == 0.0:
            return self._dist(p, q)
        return self._horofunction(q, v).value(p)

    def busemann_grad(self, ray: BusemannRay, p):
        q = self.check_point(ray.base)
        v = self.check_tangent(q, ray.direction)
        p = self.check_point(p)
        if np.linalg.norm(v) == 0.0:
            return self._distance_gradient(q, p)
        return self._horofunction(q, v).grad(p)

    def _horofunction(self, q, v):
        """B_{q,v} of a validated ray with ``np.linalg.norm(v) != 0``, as an
        object with ``value(p)`` and ``grad(p)``; raises ZeroDirectionError
        where |v|_q rounds to 0."""
        raise NotImplementedError

    def _distance_gradient(self, q, p):
        """Gradient of d(q, .) at ``p``; undefined at p = q."""
        d = self._dist(p, q)
        if d == 0.0 or np.array_equal(p, q):    # SPD's d(q, q) rounds above 0
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
        the metric at ``q``.  Used by the classic DC subproblem.
        """
        q = self.check_point(q)
        return self._linear_model(q, self.check_tangent(q, s)) \
            .grad(self.check_point(p))

    def _linear_model(self, q, s):
        """p -> <s, log_q p> for validated ``q``, ``s``, prepared for
        repeated evaluation."""
        return LinearModel(self, q, s)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def random_point(self, rng):
        raise NotImplementedError

    def random_tangent(self, p, rng):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # finite-difference support
    # ------------------------------------------------------------------

    def coordinate_directions(self):
        """Ambient coordinate directions spanning the tangent spaces."""
        raise NotImplementedError

    def rep_scale(self, p):
        """Representation scale of ``p``, used to pick finite-difference
        step sizes."""
        return float(np.linalg.norm(np.asarray(p, dtype=float)))

    def tangent_basis(self, p):
        """Orthonormal tangent basis at ``p`` under the manifold metric.

        Gram-Schmidt over the projected ambient coordinate directions;
        near-dependent candidates are dropped.
        """
        p = self.check_point(p)
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
        """d(p, exp_q(t * unit_dir)) and the overflow guard of one ray and
        point, prepared for the limit oracle's probes."""
        return RayProbe(self, q, unit_dir, p)


def fd_riemannian_grad(manifold, f, p, h=None):
    """Central-difference Riemannian gradient of a scalar field.

    Differences f(exp_p(h e_i)) - f(exp_p(-h e_i)) over an orthonormal
    tangent basis e_i, assembled back into a tangent vector.  Serves as
    the independent oracle for every closed-form gradient in the package.
    """
    p = manifold.check_point(p)
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
