"""Positive orthant with the Dikin metric, a flat Hadamard geometry.

The metric at q is G(q) = diag(q_i^-2).  Exponential, logarithm and
distance are coordinatewise:

    exp_q(v)_i = q_i * e^{v_i/q_i}
    log_q(p)_i = q_i * ln(p_i/q_i)
    d(p, q)    = sqrt(sum_i ln^2(p_i/q_i))

The curvature is identically zero, so the Busemann function of a ray
(q, v), v != 0, equals -<v, log_q p> / |v|_q exactly: it is evaluated
through the linear model, as a FlatHorofunction.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .base import FlatHorofunction, Manifold, RayProbe

_EXPONENT_GUARD = 690.0     # e^690 is near the double-precision ceiling


class DikinOrthant(Manifold):

    def __init__(self, n):
        if n < 1:
            raise ValidationError("dikin: dimension must be >= 1")
        self.n = int(n)
        self.dim = self.n
        self.name = f"dikin({n})"

    def check_point(self, p):
        p = self._as_array(p, "point")
        if p.shape != (self.n,):
            raise ValidationError(
                f"{self.name}: point has shape {p.shape}, expected ({self.n},)")
        if np.any(p <= 0.0):
            raise ValidationError(
                f"{self.name}: point must have strictly positive coordinates")
        return p

    def check_tangent(self, p, v):
        v = self._as_array(v, "tangent")
        if v.shape != (self.n,):
            raise ValidationError(
                f"{self.name}: tangent has shape {v.shape}, expected ({self.n},)")
        return v

    def _inner(self, p, u, v):
        # scaled before the product, so that p**2 cannot overflow
        return float(np.sum((u / p) * (v / p)))

    def _exp(self, p, v):
        expo = v / p
        if np.max(np.abs(expo)) > _EXPONENT_GUARD:
            raise OverflowError(
                f"{self.name}: exponential map overflows, max |v_i/q_i| = "
                f"{np.max(np.abs(expo)):.3g}")
        return p * np.exp(expo)

    def _log(self, p, q):
        p = p.x
        return p * np.log(q / p)

    def _dist(self, p, q):
        return float(np.linalg.norm(np.log(q / p)))

    def project(self, p, x):
        return np.asarray(x, dtype=float)

    def _horofunction(self, q, v):
        return FlatHorofunction(self, q, v)

    def egrad_to_rgrad(self, p, egrad):
        p = self.check_point(p)
        return np.asarray(egrad, dtype=float) * p**2

    def _linear_model_grad(self, q, s, p):
        return (s / q) * p

    def random_point(self, rng):
        return np.exp(rng.standard_normal(self.n))

    def random_tangent(self, p, rng):
        p = self.check_point(p)
        return p * rng.standard_normal(self.n)

    def coordinate_directions(self):
        return iter(np.eye(self.n))

    def _ray_probe(self, q, unit_dir, p):
        rate = np.max(np.abs(unit_dir / q))
        guard = 1e12 if rate == 0.0 else _EXPONENT_GUARD / rate
        return RayProbe(self, q, unit_dir, p, t_guard=guard)
