"""Flat Euclidean geometry on R^n."""

from __future__ import annotations

import numpy as np

from .base import FlatManifold


class Euclidean(FlatManifold):
    """R^n with the standard inner product.

    The Busemann function of a ray (q, v), v != 0, is the affine map
    -<v/|v|, p - q>, the scaled linear model.
    """

    kind = "euclidean"

    def check_point(self, p):
        return self._as_array(p, "point", (self.n,))

    def _inner(self, p, u, v):
        return float(u @ v)

    def _exp(self, p, v):
        return p.x + v

    def _log(self, p, q):
        return q.x - p.x

    def _dist(self, p, q):
        return float(np.linalg.norm(q.x - p.x))

    def egrad_to_rgrad(self, p, egrad):
        return self.check_tangent(p, egrad)

    def _linear_model_grad(self, q, s, p):
        return s.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.n)

    def random_tangent(self, p, rng):
        self.point(p)
        return rng.standard_normal(self.n)
