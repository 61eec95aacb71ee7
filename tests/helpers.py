"""Shared utilities for the test suite."""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import settings

from hadamard_dc import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                         SPDManifold, ValidationError)
from hadamard_dc.geometry import spd_fun, sym


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))


EXPLORE_FACTOR = 20         # examples per tier1 example under "explore"


def examples(n):
    """``max_examples`` of a property test that runs ``n`` examples under
    the tier1 profile (see ``conftest.py``)."""
    if settings.get_current_profile_name() == "explore":
        return EXPLORE_FACTOR * n
    return n


def load_tool(name):
    """The module of ``tools/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def primitive_counter():
    """A ``PrimitiveCounter`` of ``tools/count_primitives.py``, which the
    counting tests share."""
    return load_tool("count_primitives").PrimitiveCounter()


def on_arrays(manifold, fn):
    """A function of a point (a problem closure, a subproblem term) as a
    function of an array, which it checks into a point first."""
    return lambda p: fn(manifold.point(p))


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


def same(a, b):
    """Bit-for-bit equal results (NaN equal to NaN), or the same error."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b, equal_nan=True)


def bytes_or_error(fn, *args):
    """(bytes of the array fn returns, or of the point's array), or the
    type and message of the error it raised."""
    try:
        out = fn(*args)
    except (OverflowError, ValidationError) as exc:
        return type(exc), str(exc)
    return np.asarray(getattr(out, "x", out)).tobytes()


def conditioned_spd(n, rng, log10_cond):
    """Q diag(10^e) Q^T with exponents spanning [0, log10_cond]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    e = np.sort(rng.uniform(0.0, log10_cond, n))
    e[0], e[-1] = 0.0, log10_cond
    return sym((q * 10.0 ** (e - 0.5 * log10_cond)) @ q.T)


def direction(y, rng, kind):
    """Y^1/2 W Y^1/2 with W generic, with a repeated eigenvalue, or 0."""
    n = y.shape[0]
    if kind == "zero":
        return np.zeros((n, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.standard_normal(n)
    if kind == "repeated":
        lam = np.array([1.5, -0.5])[rng.integers(0, 2, n)]
        lam[:2] = 1.5                # at least one repeated eigenvalue
    yh = spd_fun(y, "sqrt")
    return sym(yh @ sym((q * lam) @ q.T) @ yh)


def near_center_sampler(n, rng, log10_cond):
    """A function that draws geodesic perturbations (spread e^+-1) of one
    center with eigenvalues 10^(+-c/2), c = ``log10_cond``, as the iterates
    and references of one contrastive run are of theirs."""
    zh = spd_fun(conditioned_spd(n, rng, log10_cond), "sqrt")

    def near_center():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        e = sym((q * np.exp(rng.uniform(-1.0, 1.0, n))) @ q.T)
        return sym(zh @ e @ zh)

    return near_center
