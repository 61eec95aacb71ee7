"""Hyperboloid-model kernels: Lorentz algebra, maps, horofunction forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_dc import (BusemannRay, Hyperboloid, NumericalDomainError,
                         UndefinedGradientError, ValidationError,
                         ZeroDirectionError, busemann_numeric,
                         fd_riemannian_grad, make_rng)
from helpers import rel_err, same

EPS = float(np.finfo(float).eps)


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


def test_busemann_direction_norm_underflow_raises():
    # at scaled radius 20 the Lorentz norm of the unit radial tangent
    # cancels to exactly 0; the nonzero direction passes the zero test
    # and its horofunction raises instead of dividing by 0
    m = Hyperboloid(2)
    r = 20.0
    q = m.check_point(np.array([math.sinh(r), 0.0, math.cosh(r)]))
    v = m.check_tangent(q, np.array([math.cosh(r), 0.0, math.sinh(r)]))
    assert m._norm(q, v) == 0.0
    ray = BusemannRay(q, v)
    with pytest.raises(ZeroDirectionError):
        m.busemann(ray, apex(2))
    with pytest.raises(ZeroDirectionError):
        m.busemann_grad(ray, apex(2))


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
    # far points: |p|^2 overflows, and the tangency test must neither
    # overflow nor accept everything
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        r = 400.0
        far = m.check_point(np.array([math.sinh(r), 0.0, math.cosh(r)]))
        with pytest.raises(ValidationError):
            m.check_tangent(far, np.array([1.0, 1.0, 0.0]))  # <p,v> 2.6e173
        m.check_tangent(far, np.array([math.cosh(r), 0.0, math.sinh(r)]))
        rng = make_rng(13)
        for r in (50.0, 300.0):
            p = m.check_point(np.array([math.sinh(r) * math.cos(1.0),
                                        math.sinh(r) * math.sin(1.0),
                                        math.cosh(r)]))
            for _ in range(20):
                m.check_tangent(p, m._project(p, rng.standard_normal(3)))
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


# ----------------------------------------------------------------------
# properties: prepared horofunction and the numerical edges
# ----------------------------------------------------------------------

def polar_point(m, r, u):
    """(sinh(r) u, cosh(r)) / sqrt(kappa): the point at distance
    r / sqrt(kappa) from the apex in the unit direction u, built in closed
    form so that it may lie beyond the exp overflow guard."""
    return np.append(math.sinh(r) * u, math.cosh(r)) / math.sqrt(m.kappa)


def random_unit(n, rng):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def random_point_within(m, radius, rng):
    """A point at distance at most radius / sqrt(kappa) from the apex."""
    return polar_point(m, rng.uniform(0.0, radius), random_unit(m.n, rng))


def random_unit_tangent(m, p, rng):
    w = m.random_tangent(p, rng)
    return w / m.norm(p, w)


def reference_lorentz(x, y):
    return float(x @ y) - 2.0 * float(x[-1]) * float(y[-1])


def reference_busemann(m, q, v, p):
    """The per-call closed form, with |v| and w rebuilt on every call."""
    nv = math.sqrt(max(reference_lorentz(v, v), 0.0))
    if nv == 0.0:
        return m._dist(q, p)
    w = m.kappa * q + (math.sqrt(m.kappa) / nv) * v
    arg = -reference_lorentz(p, w)
    if arg <= 0.0:
        slack = 1e-12 * (1.0 + float(np.linalg.norm(p)) *
                         float(np.linalg.norm(w)))
        if arg < -slack:
            raise NumericalDomainError("negative Busemann log argument")
        warnings.warn("Busemann log argument clamped", RuntimeWarning)
        arg = float(np.finfo(float).tiny)
    return math.log(arg) / math.sqrt(m.kappa)


def reference_busemann_grad(m, q, v, p):
    nv = math.sqrt(max(reference_lorentz(v, v), 0.0))
    if nv == 0.0:
        return m._distance_gradient(q, p)
    w = m.kappa * q + (math.sqrt(m.kappa) / nv) * v

    def project(x):
        return x + m.kappa * reference_lorentz(p, x) * p

    grad = project(w) / (math.sqrt(m.kappa) * reference_lorentz(p, w))
    return project(grad)


def outcome(fn, *args):
    """Result of fn, or the type of the error it raised."""
    try:
        return fn(*args)
    except (NumericalDomainError, UndefinedGradientError,
            ValidationError) as exc:
        return type(exc)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]),
       log10_nv=st.floats(-6.0, 3.0), zero=st.booleans())
@example(seed=1, n=1, kappa=1.0, log10_nv=0.0, zero=True)
@example(seed=2, n=5, kappa=2.5, log10_nv=3.0, zero=False)
def test_prepared_horofunction_matches_per_call(seed, n, kappa, log10_nv,
                                                zero):
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    q = random_point_within(m, 5.0, rng)
    v = 0.0 * q if zero else \
        10.0 ** log10_nv * random_unit_tangent(m, q, rng)
    # a zero direction is answered by the public calls alone, so only a
    # nonzero one has a prepared horofunction
    horo = None if zero else m._horofunction(m._point(q), v)
    ray = BusemannRay(q, v)
    # one prepared object, evaluated in turn at several points as the
    # inner solver does (the base point included, where a zero direction
    # has no gradient), against fresh per-call evaluations
    for p in [q] + [random_point_within(m, 20.0, rng) for _ in range(3)]:
        value = outcome(m.busemann, ray, p)
        assert same(value, outcome(reference_busemann, m, q, v, p))
        grad = outcome(m.busemann_grad, ray, p)
        assert same(grad, outcome(reference_busemann_grad, m, q, v, p))
        if horo is not None:
            pt = m._point(p)
            assert same(outcome(horo.value, pt), value)
            assert same(outcome(horo.grad, pt), grad)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 5), kappa=st.sampled_from([1.0, 0.3, 2.5]),
       r1=st.floats(10.0, 700.0), r2=st.floats(10.0, 700.0),
       theta=st.floats(0.5, math.pi))
@example(n=2, kappa=1.0, r1=15.0, r2=15.0, theta=math.pi)    # log(2x)
@example(n=3, kappa=1.0, r1=400.0, r2=400.0, theta=2.0)      # overflow
@example(n=2, kappa=1.0, r1=17.0, r2=694.0, theta=1.0)       # symmetry
@example(n=2, kappa=1.0, r1=10.0, r2=700.0, theta=3.0)       # 2x overflows
def test_far_pairs_dist(n, kappa, r1, r2, theta):
    """Far pairs take the log(2x) branch, or the rescaled branch once the
    raw pairing overflows; both match the closed form
    d = (r1 + r2 + ln c + ln 2)/sqrt(kappa) for the points of polar radii
    r1, r2 at angle theta (beyond cosh d = 1e8 the arcosh is ln(2 cosh d)
    to double precision), where
    4c = (1 + e^-2r1)(1 + e^-2r2) - (1 - e^-2r1)(1 - e^-2r2) cos(theta),
    and dist is exactly symmetric."""
    m = Hyperboloid(n, curvature=kappa)
    u = np.zeros(n)
    u[0] = 1.0
    w = np.zeros(n)
    w[0], w[1] = math.cos(theta), math.sin(theta)
    p, q = polar_point(m, r1, u), polar_point(m, r2, w)
    e1, e2 = math.exp(-2.0 * r1), math.exp(-2.0 * r2)
    c = ((1.0 + e1) * (1.0 + e2)
         - (1.0 - e1) * (1.0 - e2) * math.cos(theta)) / 4.0
    want = (r1 + r2 + math.log(c) + math.log(2.0)) / math.sqrt(kappa)
    d = m.dist(p, q)
    assert abs(d - want) <= 1e-12 * want
    assert d == m.dist(q, p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]),
       log10_delta=st.floats(-12.0, -2.0))
def test_near_pairs_dist(seed, n, kappa, log10_delta):
    """Near-coincident pairs take the log1p branch and keep the distance
    to the rounding of the coordinates, eps |p|^2, instead of the
    sqrt(eps) that the arcosh of the pairing would leave."""
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    p = random_point_within(m, 3.0, rng)
    delta = 10.0 ** log10_delta / math.sqrt(kappa)
    q = m.exp(p, delta * random_unit_tangent(m, p, rng))
    assert -kappa * m.lorentz(p, q) < 1.0 + 1e-4
    d = m.dist(p, q)
    assert abs(d - delta) <= 1e-12 * delta + 16.0 * EPS * (p @ p)
    assert d == m.dist(q, p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]), radius=st.floats(0.0, 3.0))
def test_exp_log_round_trip_and_symmetry(seed, n, kappa, radius):
    """Within scaled radius 3, where random_point samples at kappa = 1.
    Farther out the round trip loses accuracy: the rounding left in the
    tangency of log_p q is amplified by sinh(d)/d |p| in exp (2.6e-6 in
    distance at p of scaled radius 6.5 on Hyperboloid(3, 0.3)), a known
    defect."""
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    p = random_point_within(m, radius, rng)
    q = random_point_within(m, radius, rng)
    back = m.exp(p, m.log(p, q))
    assert np.linalg.norm(back - q) <= 1e-9 * np.linalg.norm(q)
    assert m.dist(p, q) == m.dist(q, p)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]),
       log10_nv=st.floats(-6.0, 3.0))
def test_busemann_grad_unit_norm(seed, n, kappa, log10_nv):
    """Within scaled radius 3, where random_point samples at kappa = 1.
    Far ahead along the ray -<p, w> cancels terms of size |p| |w| down to
    e^B, so the gradient loses accuracy (|grad B| - 1 = 3.3e-8 at scaled
    radius 5), a known defect."""
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    q = random_point_within(m, 3.0, rng)
    ray = BusemannRay(q, 10.0 ** log10_nv * random_unit_tangent(m, q, rng))
    for p in [q] + [random_point_within(m, 3.0, rng) for _ in range(3)]:
        g = m.busemann_grad(ray, p)
        assert abs(m.norm(p, g) - 1.0) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]))
@example(seed=0, n=2, kappa=1.0)
def test_busemann_matches_limit_oracle(seed, n, kappa):
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    q = random_point_within(m, 3.0, rng)
    ray = BusemannRay(q, random_unit_tangent(m, q, rng))
    p = random_point_within(m, 3.0, rng)
    res = busemann_numeric(m, ray, p)
    if res.converged:
        assert abs(res.value - m.busemann(ray, p)) <= 1e-6
