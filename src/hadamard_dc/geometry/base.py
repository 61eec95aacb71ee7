"""Manifold interface shared by all geometries.

Points and tangent vectors are plain numpy arrays whose interpretation is
owned by the manifold object (vectors for the flat and hyperbolic
geometries, symmetric matrices for the SPD geometry).  Validation happens
at the public boundary:

* public methods validate every argument on every call and raise
  :class:`~hadamard_dc.errors.ValidationError` naming the violated
  constraint;
* the ``_``-prefixed kernels behind them (``_inner``, ``_norm``, ``_exp``,
  ``_log``, ``_dist``, ``_busemann``, ``_busemann_grad``,
  ``_linear_model_grad``) validate nothing and are for callers that
  already hold validated values, as are the limit-oracle hooks
  ``ray_point_distance`` and ``oracle_t_guard``;
* nothing is remembered between calls, so an array mutated after a check
  is checked again on its next public call.

All operations are pure functions, so parallel callers need no
synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import UndefinedGradientError, ValidationError


@dataclass(frozen=True)
class BusemannRay:
    """Base point plus tangent direction of a geodesic ray.

    The direction may be zero, in which case the associated horofunction
    degenerates to the distance from the base point.
    """

    base: np.ndarray
    direction: np.ndarray


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
        return self._busemann(q, self.check_tangent(q, ray.direction),
                              self.check_point(p))

    def busemann_grad(self, ray: BusemannRay, p):
        q = self.check_point(ray.base)
        return self._busemann_grad(q, self.check_tangent(q, ray.direction),
                                   self.check_point(p))

    def _distance_gradient(self, q, p):
        """Gradient at ``p`` of the distance to ``q`` (zero-direction rays)."""
        d = self._dist(p, q)
        if d == 0.0:
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
        return self._linear_model_grad(q, self.check_tangent(q, s),
                                       self.check_point(p))

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

    def ray_point_distance(self, q, unit_dir, t, p):
        """d(p, exp_q(t * unit_dir)) for the limit oracle, which has
        validated ``q``, ``unit_dir`` and ``p``.

        Geometries with overflow-prone kernels override this with a
        log-domain path valid at much larger ``t``.
        """
        return self._dist(p, self._exp(q, t * unit_dir))

    def oracle_t_guard(self, q, unit_dir):
        """Largest ray parameter the oracle may use before overflow; takes
        validated values, like ``ray_point_distance``."""
        return 1e12


def fd_riemannian_grad(manifold, f, p, h=None):
    """Central-difference Riemannian gradient of a scalar field.

    Differences f(exp_p(h e_i)) - f(exp_p(-h e_i)) over an orthonormal
    tangent basis e_i, assembled back into a tangent vector.  Serves as
    the independent oracle for every closed-form gradient in the package.
    """
    p = manifold.check_point(p)
    if h is None:
        h = 1e-6 * (1.0 + manifold.rep_scale(p))
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    grad = manifold.zero_tangent(p)
    for e in manifold.tangent_basis(p):
        fp = f(manifold._exp(p, h * e))
        fm = f(manifold._exp(p, -h * e))
        grad = grad + ((fp - fm) / (2.0 * h)) * e
    return grad
