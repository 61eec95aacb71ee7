"""Flat Euclidean geometry on R^n."""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .base import FlatHorofunction, Manifold


class Euclidean(Manifold):
    """R^n with the standard inner product.

    The Busemann function of a ray (q, v), v != 0, is the affine map
    -<v/|v|, p - q>, the scaled linear model.
    """

    def __init__(self, n):
        if n < 1:
            raise ValidationError("euclidean: dimension must be >= 1")
        self.n = int(n)
        self.dim = self.n
        self.name = f"euclidean({n})"

    def check_point(self, p):
        p = self._as_array(p, "point")
        if p.shape != (self.n,):
            raise ValidationError(
                f"{self.name}: point has shape {p.shape}, expected ({self.n},)")
        return p

    def check_tangent(self, p, v):
        v = self._as_array(v, "tangent")
        if v.shape != (self.n,):
            raise ValidationError(
                f"{self.name}: tangent has shape {v.shape}, expected ({self.n},)")
        return v

    def _inner(self, p, u, v):
        return float(u @ v)

    def _exp(self, p, v):
        return p + v

    def _log(self, p, q):
        return q - p.x

    def _dist(self, p, q):
        return float(np.linalg.norm(q - p))

    def project(self, p, x):
        return np.asarray(x, dtype=float)

    def _horofunction(self, q, v):
        return FlatHorofunction(self, q, v)

    def egrad_to_rgrad(self, p, egrad):
        self.check_point(p)
        return np.asarray(egrad, dtype=float)

    def _linear_model_grad(self, q, s, p):
        return s.copy()

    def random_point(self, rng):
        return rng.standard_normal(self.n)

    def random_tangent(self, p, rng):
        self.check_point(p)
        return rng.standard_normal(self.n)

    def coordinate_directions(self):
        return iter(np.eye(self.n))
