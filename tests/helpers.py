"""Shared utilities for the test suite."""

import numpy as np

from hadamard_dc import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                         SPDManifold)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))


def all_geometries():
    return [Euclidean(5), DikinOrthant(3), Hyperboloid(2), Hyperboloid(5),
            SPDManifold(3)]


def random_ray(manifold, rng, max_dir_norm=None):
    q = manifold.random_point(rng)
    v = manifold.random_tangent(q, rng)
    if max_dir_norm is not None:
        nv = manifold.norm(q, v)
        v = v * (max_dir_norm * rng.uniform(0.1, 1.0) / nv)
    return BusemannRay(q, v)


def bounded_point(manifold, center, radius, rng):
    w = manifold.random_tangent(center, rng)
    nw = manifold.norm(center, w)
    return manifold.exp(center, (rng.uniform(0.0, radius) / nw) * w)


def same(a, b):
    """Bit-for-bit equal results (NaN equal to NaN), or the same error."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b, equal_nan=True)
