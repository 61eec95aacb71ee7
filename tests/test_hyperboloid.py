"""Hyperboloid-model kernels: Lorentz algebra, maps, horofunction forms."""

import math

import numpy as np
import pytest

from hadamard_dc import (BusemannRay, Hyperboloid, UndefinedGradientError,
                         ValidationError, fd_riemannian_grad, make_rng)
from helpers import rel_err


def apex(n):
    p = np.zeros(n + 1)
    p[-1] = 1.0
    return p


def test_lorentz_projection_examples():
    m = Hyperboloid(2)
    p = apex(2)
    np.testing.assert_allclose(m.project(p, np.array([0.0, 0.0, 1.0])),
                               np.zeros(3), atol=1e-15)
    x = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(m.project(p, x), x)


def test_projection_idempotent():
    m = Hyperboloid(3)
    rng = make_rng(0)
    p = m.random_point(rng)
    for _ in range(5):
        x = rng.standard_normal(4)
        once = m.project(p, x)
        twice = m.project(p, once)
        assert np.linalg.norm(twice - once) <= 1e-10 * (1 + np.linalg.norm(once))


def test_lorentz_dimension_mismatch():
    m = Hyperboloid(2)
    with pytest.raises(ValidationError):
        m.lorentz(np.ones(2), np.ones(3))


def test_dist_values():
    m = Hyperboloid(2)
    q = apex(2)
    assert m.dist(q, q) == 0.0
    p = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
    assert m.dist(q, p) == pytest.approx(1.0, rel=1e-12)


def test_dist_symmetry():
    m = Hyperboloid(3)
    rng = make_rng(1)
    for _ in range(100):
        p = m.random_point(rng)
        q = m.random_point(rng)
        assert m.dist(p, q) == pytest.approx(m.dist(q, p), rel=1e-12)


def test_exp_value_and_roundtrip():
    m = Hyperboloid(2)
    q = apex(2)
    v = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(m.exp(q, v),
                               [math.sinh(1.0), 0.0, math.cosh(1.0)],
                               rtol=1e-12)
    np.testing.assert_allclose(m.log(q, q), np.zeros(3), atol=1e-15)
    rng = make_rng(2)
    for _ in range(50):
        p = m.random_point(rng)
        w = m.random_tangent(p, rng)
        w = w * (rng.uniform(0.0, 10.0) / m.norm(p, w))
        back = m.log(p, m.exp(p, w))
        assert np.linalg.norm(back - w) <= 1e-9 * (1.0 + np.linalg.norm(w))


def test_exp_overflow_guard():
    m = Hyperboloid(2)
    q = apex(2)
    with pytest.raises(OverflowError):
        m.exp(q, np.array([400.0, 0.0, 0.0]))


def test_exp_log_outputs_satisfy_constraints():
    m = Hyperboloid(4)
    rng = make_rng(3)
    for _ in range(200):
        p = m.random_point(rng)
        v = m.random_tangent(p, rng)
        out = m.exp(p, v)
        s = max(1.0, np.max(np.abs(out)))
        oh = out / s
        assert abs(m.lorentz(oh, oh) + 1.0 / (s * s)) <= 1e-8 * (1 + oh @ oh)
        q = m.random_point(rng)
        t = m.log(p, q)
        assert abs(m.lorentz(p, t)) <= \
            1e-8 * (1 + np.linalg.norm(p) * np.linalg.norm(t))


def test_egrad_to_rgrad():
    m = Hyperboloid(2)
    q = apex(2)
    # the last coordinate has a minimum at the apex: zero gradient
    g = m.egrad_to_rgrad(q, np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(g, np.zeros(3), atol=1e-15)
    np.testing.assert_allclose(m.egrad_to_rgrad(q, np.zeros(3)), np.zeros(3))


def test_egrad_to_rgrad_matches_fd():
    rng = make_rng(4)
    m = Hyperboloid(3)
    for _ in range(20):
        p = m.random_point(rng)
        c = rng.standard_normal(4)
        a = rng.standard_normal()

        def f(x, c=c, a=a):
            return float(np.tanh(c @ x) + a * (x[0] ** 2))

        def egrad(x, c=c, a=a):
            g = (1 - np.tanh(c @ x) ** 2) * c
            g[0] += 2 * a * x[0]
            return g

        got = m.egrad_to_rgrad(p, egrad(p))
        want = fd_riemannian_grad(m, f, p)
        assert rel_err(got, want) < 1e-5
        # tangency of the conversion output
        assert abs(m.lorentz(p, got)) <= 1e-9 * (1 + np.linalg.norm(got))


def test_busemann_closed_form_apex():
    m = Hyperboloid(2)
    q = apex(2)
    v = np.array([1.0, 0.0, 0.0])
    ray = BusemannRay(q, v)
    assert m.busemann(ray, q) == pytest.approx(0.0, abs=1e-14)
    rng = make_rng(5)
    for _ in range(20):
        p = m.random_point(rng)
        assert m.busemann(ray, p) == pytest.approx(
            math.log(p[2] - p[0]), rel=1e-10, abs=1e-12)
    for tau in (-3.0, -1.0, 0.5, 2.0, 4.0):
        p = m.exp(q, tau * v)
        assert m.busemann(ray, p) == pytest.approx(-tau, abs=1e-10)


def test_busemann_grad_base_unit_fd():
    rng = make_rng(6)
    for kappa in (1.0, 2.5):
        m = Hyperboloid(2, curvature=kappa)
        q = m.random_point(rng)
        v = m.random_tangent(q, rng)
        ray = BusemannRay(q, v)
        nv = m.norm(q, v)
        assert np.linalg.norm(m.busemann_grad(ray, q) + v / nv) <= 1e-9
        for _ in range(5):
            p = m.random_point(rng)
            g = m.busemann_grad(ray, p)
            assert m.norm(p, g) == pytest.approx(1.0, abs=1e-8)
            gfd = fd_riemannian_grad(m, lambda x: m.busemann(ray, x), p)
            assert rel_err(g, gfd) < 1e-5


def test_busemann_grad_zero_direction_error():
    m = Hyperboloid(2)
    q = apex(2)
    with pytest.raises(UndefinedGradientError):
        m.busemann_grad(BusemannRay(q, np.zeros(3)), q)


def test_comparison_inequality():
    m = Hyperboloid(2)
    rng = make_rng(7)
    for _ in range(1000):
        x = m.random_point(rng)
        y = m.random_point(rng)
        z = m.random_point(rng)
        lhs = m.dist(x, y) ** 2 + m.dist(x, z) ** 2 \
            - 2 * m.inner(x, m.log(x, y), m.log(x, z))
        assert lhs <= m.dist(y, z) ** 2 + 1e-8


def test_busemann_subgradient_inequality():
    m = Hyperboloid(2)
    rng = make_rng(8)
    for _ in range(1000):
        q = m.random_point(rng)
        v = m.random_tangent(q, rng)
        p = m.random_point(rng)
        lhs = -m.inner(q, v, m.log(q, p))
        rhs = m.norm(q, v) * m.busemann(BusemannRay(q, v), p)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_busemann_geodesic_convexity():
    m = Hyperboloid(2)
    rng = make_rng(9)
    for _ in range(50):
        q = m.random_point(rng)
        v = m.random_tangent(q, rng)
        ray = BusemannRay(q, v)
        p1 = m.random_point(rng)
        p2 = m.random_point(rng)
        b1 = m.busemann(ray, p1)
        b2 = m.busemann(ray, p2)
        for t in (0.25, 0.5, 0.75):
            bt = m.busemann(ray, m.geodesic(p1, p2, t))
            assert bt <= (1 - t) * b1 + t * b2 + 1e-10


def test_point_validation():
    m = Hyperboloid(2)
    with pytest.raises(ValidationError):
        m.check_point(np.array([0.0, 0.0, -1.0]))     # lower sheet
    with pytest.raises(ValidationError):
        m.check_point(np.array([1.0, 1.0, 1.0]))      # off the quadric
    with pytest.raises(ValidationError):
        m.check_tangent(apex(2), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError):
        Hyperboloid(2, curvature=0.0)
    # a checked point mutated in place is checked again on its next use
    p = m.apex()
    m.check_point(p)
    p[0] = 5.0
    with pytest.raises(ValidationError):
        m.dist(p, m.apex())


def test_random_point_determinism_and_validity():
    m = Hyperboloid(3)
    a = m.random_point(make_rng(11))
    b = m.random_point(make_rng(11))
    np.testing.assert_array_equal(a, b)
    rng = make_rng(12)
    for _ in range(1000):
        m.check_point(m.random_point(rng))
