"""Euclidean and Dikin-orthant kernels: worked values and flat identities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_dc import (BusemannRay, DikinOrthant, Euclidean, SPDManifold,
                         UndefinedGradientError, ValidationError,
                         ZeroDirectionError, fd_riemannian_grad, make_rng)
from helpers import (all_geometries, bytes_or_error, conditioned_spd,
                     examples, same)

E = math.e
EPS = float(np.finfo(float).eps)


def test_euclidean_inner_orthogonal():
    m = Euclidean(2)
    assert m.inner(np.zeros(2), np.array([1.0, 0.0]),
                   np.array([0.0, 1.0])) == 0.0


def test_dikin_inner_values():
    m = DikinOrthant(2)
    q = np.array([2.0, 2.0])
    v = np.array([2.0, 2.0])
    assert m.inner(q, v, v) == pytest.approx(2.0, abs=1e-15)
    m1 = DikinOrthant(1)
    assert m1.inner(np.array([1.0]), np.array([3.0]),
                    np.array([3.0])) == pytest.approx(9.0, abs=1e-15)


def test_exp_values():
    m = Euclidean(2)
    np.testing.assert_allclose(m.exp(np.array([1.0, 2.0]),
                                     np.array([3.0, 4.0])),
                               [4.0, 6.0])
    d = DikinOrthant(2)
    np.testing.assert_allclose(d.exp(np.array([1.0, 1.0]),
                                     np.array([1.0, 0.0])),
                               [E, 1.0], rtol=1e-15)
    p = np.array([0.3, 0.7])
    np.testing.assert_allclose(d.exp(p, np.zeros(2)), p)


def test_log_values():
    m = Euclidean(2)
    np.testing.assert_allclose(m.log(np.array([1.0, 1.0]),
                                     np.array([4.0, 5.0])),
                               [3.0, 4.0])
    d = DikinOrthant(2)
    np.testing.assert_allclose(d.log(np.array([1.0, 1.0]),
                                     np.array([E, 1.0])),
                               [1.0, 0.0], atol=1e-15)
    p = np.array([2.0, 3.0])
    np.testing.assert_allclose(d.log(p, p), np.zeros(2), atol=1e-15)


def test_dist_values():
    assert Euclidean(2).dist(np.zeros(2), np.array([3.0, 4.0])) == \
        pytest.approx(5.0)
    d = DikinOrthant(2)
    assert d.dist(np.array([1.0, 1.0]), np.array([E, E])) == \
        pytest.approx(math.sqrt(2.0), rel=1e-14)
    p = np.array([0.5, 2.0])
    assert d.dist(p, p) == 0.0


def test_busemann_values():
    m = Euclidean(2)
    ray = BusemannRay(np.zeros(2), np.array([1.0, 0.0]))
    assert m.busemann(ray, np.array([3.0, 4.0])) == pytest.approx(-3.0)
    d = DikinOrthant(2)
    rayd = BusemannRay(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert d.busemann(rayd, np.array([E * E, 1.0])) == \
        pytest.approx(-2.0, rel=1e-14)
    # value at the base point vanishes for any direction
    for man, r in ((m, ray), (d, rayd)):
        assert man.busemann(r, r.base) == pytest.approx(0.0, abs=1e-15)


def test_busemann_zero_direction_is_distance():
    # B_{q,0} = d(q, .) is decided in the public calls, on every geometry
    for m in all_geometries():
        rng = make_rng(0)
        q = m.random_point(rng)
        p = m.random_point(rng)
        ray = BusemannRay(q, m.zero_tangent(q))
        assert same(m.busemann(ray, p), m._dist(p, m.point(q)))
        assert m.busemann(ray, p) == pytest.approx(m.dist(q, p), rel=1e-12)
        with pytest.raises(UndefinedGradientError):
            m.busemann_grad(ray, q)
        g = m.busemann_grad(ray, p)
        assert same(g, m._distance_gradient(m.point(q), m.point(p)))
        assert m.norm(p, g) == pytest.approx(1.0, abs=1e-12)


def test_busemann_direction_norm_underflow_raises():
    # |v|_q = |v / q| underflows to 0 at a huge base point; the nonzero
    # direction passes the zero test and its horofunction raises instead
    # of dividing by 0
    m = DikinOrthant(3)
    q = np.full(3, 1e200)
    v = np.full(3, 1e-100)
    assert m._norm(m.point(q), v) == 0.0
    ray = BusemannRay(q, v)
    with pytest.raises(ZeroDirectionError):
        m.busemann(ray, np.ones(3))
    with pytest.raises(ZeroDirectionError):
        m.busemann_grad(ray, np.ones(3))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dikin_inner_at_huge_base_point_does_not_overflow():
    # q_i^2 overflows at q = 1e200, while (u/q)(v/q) is representable; the
    # underflowing direction still raises ZeroDirectionError, silently
    m = DikinOrthant(3)
    q = np.full(3, 1e200)
    assert m.inner(q, q, 2.0 * q) == 6.0
    assert m.norm(q, q) == math.sqrt(3.0)
    assert m._norm(m.point(q), np.full(3, 1e-100)) == 0.0
    ray = BusemannRay(q, np.full(3, 1e-100))
    with pytest.raises(ZeroDirectionError):
        m.busemann(ray, np.ones(3))
    with pytest.raises(ZeroDirectionError):
        m.busemann_grad(ray, np.ones(3))


def reference_busemann(m, q, v, p):
    """The per-call flat formulas that the linear-model form replaced."""
    if isinstance(m, Euclidean):
        nv = np.linalg.norm(v)
        return float(-(v / nv) @ (p - q))
    return float(-np.sum((v / q) * np.log(p / q)) / m._norm(m.point(q), v))


def reference_busemann_grad(m, q, v, p):
    if isinstance(m, Euclidean):
        return -v / np.linalg.norm(v)
    # Euclidean derivative -(v_i/q_i)/p_i pushed through G(p)^{-1}
    return -(v / q) * p / m._norm(m.point(q), v)


@pytest.mark.parametrize("manifold", [Euclidean(4), DikinOrthant(3)])
def test_flat_horofunction_matches_per_call_formulas(manifold):
    """B_{q,v} = -<v, log_q p>_q / |v|_q through the linear model: the
    gradient bit for bit, the value to a few roundings of the formula."""
    m = manifold
    rng = make_rng(14)
    for _ in range(1000):
        q = m.random_point(rng)
        v = 10.0 ** rng.uniform(-3.0, 3.0) * m.random_tangent(q, rng)
        p = m.random_point(rng)
        horo = m._horofunction(m._point(q), v)
        ray = BusemannRay(q, v)
        value = m.busemann(ray, p)
        assert same(horo.value(m._point(p)), value)
        want = reference_busemann(m, q, v, p)
        assert abs(value - want) <= 8.0 * EPS * (1.0 + abs(want))
        grad = m.busemann_grad(ray, p)
        assert same(horo.grad(m._point(p)), grad)
        assert same(grad, reference_busemann_grad(m, q, v, p))


def test_busemann_grad_constant_euclidean():
    m = Euclidean(2)
    ray = BusemannRay(np.zeros(2), np.array([2.0, 0.0]))
    rng = make_rng(1)
    for _ in range(3):
        p = m.random_point(rng)
        np.testing.assert_allclose(m.busemann_grad(ray, p), [-1.0, 0.0])


def test_busemann_grad_base_and_unit_norm_dikin():
    d = DikinOrthant(3)
    rng = make_rng(2)
    q = d.random_point(rng)
    v = d.random_tangent(q, rng)
    ray = BusemannRay(q, v)
    nv = d.norm(q, v)
    np.testing.assert_allclose(d.busemann_grad(ray, q), -v / nv, atol=1e-12)
    for _ in range(3):
        p = d.random_point(rng)
        g = d.busemann_grad(ray, p)
        assert d.norm(p, g) == pytest.approx(1.0, abs=1e-8)
        gfd = fd_riemannian_grad(d, lambda x: d.busemann(ray, x), p)
        assert np.linalg.norm(gfd - g) < 1e-5


def test_fd_gradient_euclidean_quadratic():
    m = Euclidean(2)
    g = fd_riemannian_grad(m, lambda p: float(p @ p),
                           np.array([1.0, 2.0]), h=1e-6)
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-6)


def test_fd_step_must_be_positive():
    m = Euclidean(2)
    for h in (0.0, -1e-6, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            fd_riemannian_grad(m, lambda p: 0.0, np.zeros(2), h=h)


@pytest.mark.parametrize("manifold", [Euclidean(4), DikinOrthant(3)])
def test_roundtrip_and_flat_equality(manifold):
    rng = make_rng(3)
    for _ in range(50):
        p = manifold.random_point(rng)
        q = manifold.random_point(rng)
        d = manifold.dist(p, q)
        assert manifold.dist(manifold.exp(p, manifold.log(p, q)), q) <= \
            1e-9 * (1.0 + d)
        v = manifold.random_tangent(p, rng)
        nv = manifold.norm(p, v)
        ray = BusemannRay(p, v)
        bus = manifold.busemann(ray, q)
        # exact equality of the linear model on flat geometry
        assert abs(nv * bus + manifold.inner(p, v, manifold.log(p, q))) \
            <= 1e-10 * (1.0 + abs(nv * bus))
        # triangle bound and scale invariance
        assert abs(bus) <= d + 1e-12
        c = rng.uniform(0.2, 9.0)
        assert manifold.busemann(BusemannRay(p, c * v), q) == \
            pytest.approx(bus, abs=1e-10)


@pytest.mark.parametrize("manifold", [Euclidean(3), DikinOrthant(3)])
def test_ray_linearity_flat(manifold):
    rng = make_rng(4)
    q = manifold.random_point(rng)
    v = manifold.random_tangent(q, rng)
    v = v / manifold.norm(q, v)
    ray = BusemannRay(q, v)
    for tau in np.linspace(-5.0, 5.0, 11):
        p = manifold.exp(q, tau * v)
        assert manifold.busemann(ray, p) == pytest.approx(-tau, abs=1e-8)


def test_random_point_determinism():
    for manifold in (Euclidean(4), DikinOrthant(4)):
        a = manifold.random_point(make_rng(7))
        b = manifold.random_point(make_rng(7))
        np.testing.assert_array_equal(a, b)


def test_validation_errors():
    d = DikinOrthant(2)
    with pytest.raises(ValidationError):
        d.check_point(np.array([1.0, -1.0]))
    with pytest.raises(ValidationError):
        d.check_point(np.array([1.0, 2.0, 3.0]))
    m = Euclidean(2)
    with pytest.raises(ValidationError):
        m.check_point(np.array([np.nan, 0.0]))
    with pytest.raises(ValidationError):
        DikinOrthant(0)


def test_dikin_exp_overflow_guard():
    d = DikinOrthant(1)
    with pytest.raises(OverflowError):
        d.exp(np.array([1.0]), np.array([1e4]))


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dikin=st.booleans(),
       n=st.integers(1, 5), log10_t=st.floats(-8.0, 3.5),
       nan=st.booleans())
@example(seed=0, dikin=True, n=3, log10_t=3.5, nan=False)   # above the guard
@example(seed=1, dikin=False, n=2, log10_t=0.0, nan=True)   # NaN direction
def test_ray_step_matches_checked_exp(seed, dikin, n, log10_t, nan):
    """On the flat geometries ``_ray(p, d).step(t)`` is the point of
    ``check_point(_exp(p, t d))``: the same bytes, or the same error type
    and message, at t and at a halving; the ray's speed is the bytes of
    ``_norm(p, d)``."""
    m = DikinOrthant(n) if dikin else Euclidean(n)
    rng = np.random.default_rng(seed)
    p = m.random_point(rng)
    d = m.random_tangent(p, rng)
    if nan:
        d[0] = math.nan
    pt = m._point(p)
    ray = m._ray(pt, d)
    assert same(ray.speed, m._norm(pt, d))
    for t in (10.0 ** log10_t, 0.5 * 10.0 ** log10_t):
        assert bytes_or_error(ray.step, t) == bytes_or_error(
            lambda: m._point(m.check_point(m._exp(pt, t * d))))


def test_egrad_to_rgrad_validates_the_gradient():
    """A Euclidean gradient with a non-finite entry or the wrong shape is a
    ValidationError on every geometry, not a NaN, an inf or a broadcast."""
    for manifold in all_geometries():
        rng = make_rng(22)
        p = manifold.random_point(rng)
        good = manifold.random_tangent(p, rng)
        nan, inf = good.copy(), good.copy()
        nan.flat[0], inf.flat[0] = math.nan, math.inf
        for egrad in (nan, inf, good.ravel()[:2]):
            with pytest.raises(ValidationError):
                manifold.egrad_to_rgrad(p, egrad)


def test_tangent_basis_orthonormal_everywhere():
    """At a random point of each geometry within 1e-10, and at an SPD
    point of condition 1e8 within eps 1e8: there the basis L E_k L^T
    reached 0.29 eps 1e8 at worst over 200 draws, where X^1/2 E_k X^1/2
    with the metric solving with X reached 2.4."""
    for manifold in all_geometries():
        rng = make_rng(21)
        points = [(manifold.random_point(rng), 1e-10)]
        if isinstance(manifold, SPDManifold):
            points.append((conditioned_spd(manifold.n, rng, 8.0), EPS * 1e8))
        for p, tol in points:
            basis = manifold.tangent_basis(p)
            assert len(basis) == manifold.dim
            for i, ei in enumerate(basis):
                for j, ej in enumerate(basis):
                    want = 1.0 if i == j else 0.0
                    assert abs(manifold.inner(p, ei, ej) - want) <= tol


@pytest.mark.parametrize("manifold", all_geometries(), ids=lambda m: m.name)
def test_geodesic_and_random_point_near_reject_bad_parameters(manifold):
    """A non-finite geodesic parameter t, or a radius outside [0, inf), is a
    ValidationError naming it; a bad radius is rejected before any draw.
    A radius of -0.0 is 0.0: the same draws and the same point."""
    rng = make_rng(23)
    p = manifold.random_point(rng)
    q = manifold.random_point(rng)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="parameter t"):
            manifold.geodesic(p, q, bad)
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValidationError, match="radius"):
            manifold.random_point_near(p, bad, rng)
    fresh = make_rng(23)                # the stream of p and q, replayed
    manifold.random_point(fresh)
    manifold.random_point(fresh)
    assert same(manifold.random_point_near(p, 2.0, rng),
                manifold.random_point_near(p, 2.0, fresh))
    assert same(manifold.random_point_near(p, -0.0, rng),
                manifold.random_point_near(p, 0.0, fresh))
    assert same(rng.random(), fresh.random())
