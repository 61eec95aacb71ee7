"""Flat Euclidean geometry on R^n."""

from __future__ import annotations

import numpy as np

from .base import FlatHorofunction, Manifold, check_count


class Euclidean(Manifold):
    """R^n with the standard inner product.

    The Busemann function of a ray (q, v), v != 0, is the affine map
    -<v/|v|, p - q>, the scaled linear model.
    """

    def __init__(self, n):
        self.n = check_count(n, "euclidean: dimension")
        self.dim = self.n
        self.name = f"euclidean({n})"

    def check_point(self, p):
        return self._as_array(p, "point", (self.n,))

    def check_tangent(self, p, v):
        return self._as_array(v, "tangent", (self.n,))

    def _inner(self, p, u, v):
        return float(u @ v)

    def _exp(self, p, v):
        return p.x + v

    def _log(self, p, q):
        return q - p.x

    def _dist(self, x, y):
        return float(np.linalg.norm(y.x - x))

    def project(self, p, x):
        return np.asarray(x, dtype=float)

    def _horofunction(self, q, v):
        return FlatHorofunction(self, q, v)

    def egrad_to_rgrad(self, p, egrad):
        return self.check_tangent(self._array(p), egrad)

    def _linear_model_grad(self, q, s, p):
        return s.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.n)

    def random_tangent(self, p, rng):
        self._array(p)
        return rng.standard_normal(self.n)

    def coordinate_directions(self):
        return iter(np.eye(self.n))
