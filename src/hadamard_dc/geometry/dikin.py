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
from .base import FlatManifold

_EXPONENT_GUARD = 690.0     # e^690 is near the double-precision ceiling


class DikinOrthant(FlatManifold):

    kind = "dikin"

    def check_point(self, p):
        p = self._as_array(p, "point", (self.n,))
        if np.any(p <= 0.0):
            raise ValidationError(
                f"{self.name}: point must have strictly positive coordinates")
        return p

    def _inner(self, p, u, v):
        p = p.x
        # scaled before the product, so that p**2 cannot overflow
        return float(np.sum((u / p) * (v / p)))

    def _exp(self, p, v):
        p = p.x
        expo = v / p
        top = np.max(np.abs(expo))
        if not top <= _EXPONENT_GUARD:      # NaN too, before np.exp sees it
            raise OverflowError(
                f"{self.name}: exponential map overflows, max |v_i/q_i| = "
                f"{top:.3g}")
        return p * np.exp(expo)

    def _log(self, p, q):
        p = p.x
        return p * np.log(q.x / p)

    def _dist(self, p, q):
        return float(np.linalg.norm(np.log(q.x / p.x)))

    def egrad_to_rgrad(self, p, egrad):
        p = self.point(p)
        return self.check_tangent(p, egrad) * p.x**2

    def _linear_model_grad(self, q, s, p):
        return (s / q.x) * p.x

    def random_point(self, rng):
        return np.exp(rng.standard_normal(self.n))

    def random_tangent(self, p, rng):
        p = self.point(p).x
        return p * rng.standard_normal(self.n)
