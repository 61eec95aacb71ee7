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
from hadamard_dc.geometry.hyperboloid import (_EXP_ARG_GUARD, _TINY,
                                              _lorentz, _ucoef)
from helpers import bytes_or_error, examples, rel_err, same

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
    assert m._norm(m.point(q), v) == 0.0
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
        # infinite entries are a ValidationError, not a warning raised
        # from the quadric or tangency test
        inf = np.array([math.inf, 0.0, math.inf])
        with pytest.raises(ValidationError, match="non-finite"):
            m.check_point(inf)
        with pytest.raises(ValidationError, match="non-finite"):
            m.check_tangent(m.apex(), inf)
        with pytest.raises(ValidationError, match="non-finite"):
            m.check_tangent(inf, np.zeros(3))
        with pytest.raises(ValidationError, match="non-finite"):
            m.dist(inf, m.apex())
        with pytest.raises(ValidationError, match="non-finite"):
            m.dist(m.apex(), inf)
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
        return m._dist(q, m.point(p))
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
        return m._distance_gradient(m.point(q), m.point(p))
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


@settings(max_examples=examples(80), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]),
       log10_nv=st.floats(-6.0, 3.0), zero=st.booleans())
@example(seed=1, n=1, kappa=1.0, log10_nv=0.0, zero=True)
@example(seed=2, n=5, kappa=2.5, log10_nv=3.0, zero=False)
# far field: the Busemann log argument rounds to <= 0 and is clamped
@example(seed=322737, n=1, kappa=1.0, log10_nv=0.0, zero=False)
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


@settings(max_examples=examples(80), deadline=None)
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


@settings(max_examples=examples(80), deadline=None)
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


@settings(max_examples=examples(80), deadline=None)
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


@settings(max_examples=examples(80), deadline=None)
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


@settings(max_examples=examples(40), deadline=None)
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


# ----------------------------------------------------------------------
# the fused trial step and log against their former forms, bit for bit
# ----------------------------------------------------------------------

def former_exp(m, p, v):
    """exp_p(v) as it was before it returned its largest coordinate: the
    largest |coordinate| taken here to decide the renormalization, and
    again by ``former_check_point``."""
    nv = math.sqrt(max(_lorentz(v, v), 0.0))
    arg = math.sqrt(m.kappa) * nv
    if arg > _EXP_ARG_GUARD:
        raise OverflowError(
            f"{m.name}: exponential map argument {arg:.3g} exceeds "
            f"the overflow guard {_EXP_ARG_GUARD:g}")
    if nv == 0.0:
        return p.copy()
    out = math.cosh(arg) * p + (math.sinh(arg) / arg) * v
    if float(np.abs(out).max()) > 1e2:
        return out
    quad = _lorentz(out, out)
    return out / math.sqrt(max(-m.kappa * quad, _TINY))


def former_check_point(m, p):
    """The sheet tests of ``check_point`` on an array of the right shape,
    with the largest |coordinate| taken from the array."""
    s = max(1.0, float(np.abs(p).max()))
    ph = p / s
    residual = _lorentz(ph, ph) + 1.0 / (m.kappa * s * s)
    if not (abs(residual) <= 1e-8 * (1.0 + float(ph.dot(ph)))):
        raise ValidationError(
            f"{m.name}: point violates <p,p> = -1/kappa "
            f"(scaled residual {residual:.3g})")
    if not (p[-1] > 0.0):
        raise ValidationError(
            f"{m.name}: point must lie on the upper sheet "
            "(last coordinate > 0)")
    return p


def former_log(m, q, p):
    """log_q p with <q, p> formed twice, once more in the projection."""
    beta = max(-m.kappa * _lorentz(q, p), 1.0)
    v = _ucoef(beta) * (p + m.kappa * _lorentz(q, p) * q)
    return v + m.kappa * _lorentz(q, v) * q


def polar_tangent(m, r, u, rng):
    """A unit tangent at ``polar_point(m, r, u)`` in closed form: a multiple
    of the radial unit tangent (cosh(r) u, sinh(r)) plus (w, 0), w
    orthogonal to u, scaled by its exact norm, since the Lorentz form
    cancels at far points."""
    w = rng.standard_normal(m.n)
    w -= (w @ u) * u
    a = rng.standard_normal()
    v = a * np.append(math.cosh(r) * u, math.sinh(r)) + np.append(w, 0.0)
    return v / math.hypot(a, *w)


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]), radius=st.floats(0.0, 20.0),
       log10_t=st.floats(-8.0, 2.7),
       skew=st.sampled_from([0.0, 0.0, 1e-9, 1e-4, 1.0, -3.0]),
       nan=st.booleans())
@example(seed=0, n=2, kappa=1.0, radius=20.0, log10_t=1.0, skew=0.0,
         nan=False)                                     # scaled radius 20
@example(seed=1, n=3, kappa=1.0, radius=20.0, log10_t=math.log10(349.0),
         skew=0.0, nan=False)                           # below the guard
@example(seed=1, n=3, kappa=1.0, radius=3.0, log10_t=math.log10(351.0),
         skew=0.0, nan=False)                           # above the guard
@example(seed=2, n=2, kappa=2.5, radius=1.0, log10_t=0.0, skew=0.0,
         nan=True)                                      # NaN direction
@example(seed=3, n=2, kappa=0.3, radius=2.0, log10_t=0.5, skew=1.0,
         nan=False)                                     # off the sheet
@example(seed=4, n=2, kappa=1.0, radius=0.5, log10_t=math.log10(5.0),
         skew=-3.0, nan=False)                          # spacelike
def test_step_matches_checked_former_exp(seed, n, kappa, radius, log10_t,
                                         skew, nan):
    """``_ray(p, d).step(t)`` is the point of ``check_point(_exp(p, t d))``
    as it was before the largest coordinate was taken once: the same
    bytes, or the same error type and message, at t = 1 and at the
    halvings a line search tries; ``_exp`` keeps its former bytes too, and
    the ray's speed is the bytes of ``_norm(p, d)``."""
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    u = random_unit(n, rng)
    p = polar_point(m, radius, u)
    d = 10.0 ** log10_t * polar_tangent(m, radius, u, rng) + skew * p
    if nan:
        d[0] = math.nan
    pt = m._point(p)

    def former_step(p, v):
        return m._point(former_check_point(m, former_exp(m, p, v)))

    ray = m._ray(pt, d)
    assert same(ray.speed, m._norm(pt, d))
    for t in (1.0, 0.5, 2.0 ** -20):
        step = bytes_or_error(ray.step, t)
        assert step == bytes_or_error(former_step, p, t * d)
        if not isinstance(step, tuple):
            assert type(ray.step(t)) is type(pt)
    assert bytes_or_error(m._exp, pt, d) == bytes_or_error(former_exp, m, p,
                                                           d)


@settings(max_examples=examples(150), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       kappa=st.sampled_from([1.0, 0.3, 2.5]), radius=st.floats(0.0, 20.0))
@example(seed=0, n=2, kappa=1.0, radius=20.0)
@example(seed=1, n=1, kappa=2.5, radius=0.0)
def test_log_matches_former_double_pairing(seed, n, kappa, radius):
    """``_log`` forms <q, p> once; its bytes equal the former form, which
    formed it again in the projection, also at q = p and for NaN input."""
    m = Hyperboloid(n, curvature=kappa)
    rng = np.random.default_rng(seed)
    q = random_point_within(m, radius, rng)
    nan_p = np.full(n + 1, math.nan)
    for p in (q, q.copy(), random_point_within(m, radius, rng), nan_p):
        assert same(m._log(m._point(q), p), former_log(m, q, p))
