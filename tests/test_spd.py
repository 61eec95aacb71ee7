"""SPD-manifold kernels: matrix functions, metric maps, horofunction forms."""

import math

import numpy as np
import pytest

from hadamard_dc import (BusemannRay, DefinitenessError, SPDManifold,
                         ValidationError, ZeroDirectionError,
                         fd_riemannian_grad, make_rng)
from hadamard_dc.geometry import chol, frechet_log, logdet, spd_fun, sym
from helpers import rel_err

E = math.e


def rand_spd(n, rng):
    return SPDManifold(n).random_point(rng)


def test_spd_fun_examples():
    np.testing.assert_allclose(spd_fun(np.eye(3), "log"), np.zeros((3, 3)),
                               atol=1e-15)
    a = np.diag([E ** 2, E ** -1])
    np.testing.assert_allclose(spd_fun(a, "log"), np.diag([2.0, -1.0]),
                               rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(chol(np.diag([4.0, 9.0])),
                               np.diag([2.0, 3.0]))


def test_spd_fun_round_trip():
    rng = make_rng(0)
    for _ in range(20):
        a = rand_spd(4, rng)
        back = spd_fun(spd_fun(a, "log"), "exp")
        assert np.linalg.norm(back - a) <= 1e-10 * (1 + np.linalg.norm(a))


def test_spd_fun_definiteness_errors():
    bad = np.diag([1.0, -1.0])
    for kind in ("log", "sqrt", "invsqrt"):
        with pytest.raises(DefinitenessError):
            spd_fun(bad, kind)
    with pytest.raises(DefinitenessError):
        chol(bad)
    with pytest.raises(ValueError):
        spd_fun(np.eye(2), "cosh")


def test_metric_values():
    m = SPDManifold(2)
    assert m.dist(np.diag([E ** 2, E ** -1]), np.eye(2)) == \
        pytest.approx(math.sqrt(5.0), rel=1e-13)
    rng = make_rng(1)
    v = m.random_tangent(np.eye(2), rng)
    np.testing.assert_allclose(m.exp(np.eye(2), v), spd_fun(v, "exp"),
                               rtol=1e-12, atol=1e-12)
    x = rand_spd(2, rng)
    np.testing.assert_allclose(m.log(np.eye(2), x), spd_fun(x, "log"),
                               rtol=1e-12, atol=1e-12)


def test_exp_log_roundtrip():
    m = SPDManifold(3)
    rng = make_rng(2)
    for _ in range(30):
        x = m.random_point(rng)
        y = m.random_point(rng)
        d = m.dist(x, y)
        assert m.dist(m.exp(x, m.log(x, y)), y) <= 1e-9 * (1 + d)


def test_egrad_to_rgrad_logdet():
    m = SPDManifold(3)
    rng = make_rng(3)
    x = m.random_point(rng)
    # f = ln det X has Euclidean derivative X^-1, hence gradient X
    got = m.egrad_to_rgrad(x, np.linalg.inv(x))
    assert rel_err(got, x) < 1e-12
    # f = (ln det X)^2 has gradient 2 ln det X * X with norm 2 sqrt(n)|ld|
    ld = logdet(x)
    g2 = m.egrad_to_rgrad(x, 2.0 * ld * np.linalg.inv(x))
    assert rel_err(g2, 2.0 * ld * x) < 1e-12
    assert m.norm(x, g2) == pytest.approx(2.0 * math.sqrt(3) * abs(ld),
                                          rel=1e-10)
    # fd cross-check on a generic smooth function
    c = sym(rng.standard_normal((3, 3)))

    def f(z):
        return float(np.tanh(np.sum(c * z)))

    def egrad(z):
        return (1 - np.tanh(np.sum(c * z)) ** 2) * c

    want = fd_riemannian_grad(m, f, x)
    assert rel_err(m.egrad_to_rgrad(x, egrad(x)), want) < 1e-5


def test_spectral_split_examples():
    m = SPDManifold(2)
    split = m.spectral_split(np.eye(2), np.diag([1.0, -1.0]))
    np.testing.assert_allclose(split.eigenvalues, [-1.0, 1.0])
    np.testing.assert_array_equal(split.multiplicities, [1, 1])
    assert split.norm_const == pytest.approx(math.sqrt(2.0))
    # permutation-like orthogonal factor
    assert np.allclose(np.abs(split.basis), np.eye(2)[::-1]) \
        or np.allclose(np.abs(split.basis), np.eye(2))

    m3 = SPDManifold(3)
    split3 = m3.spectral_split(np.eye(3), np.eye(3))
    np.testing.assert_allclose(split3.eigenvalues, [1.0])
    np.testing.assert_array_equal(split3.multiplicities, [3])
    np.testing.assert_array_equal(split3.boundaries, [0, 3])

    with pytest.raises(ZeroDirectionError):
        m3.spectral_split(np.eye(3), np.zeros((3, 3)))


def test_grouping_insensitivity():
    m = SPDManifold(3)
    rng = make_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    x = rand_spd(3, rng)
    for delta in (0.0, 1e-13):
        v_eq = sym((q * np.array([1.0, 1.0 + delta, -2.0])) @ q.T)
        ray = BusemannRay(np.eye(3), v_eq)
        if delta == 0.0:
            base = m.busemann(ray, x)
        else:
            assert m.busemann(ray, x) == pytest.approx(base, abs=1e-10)


def test_busemann_commuting_values():
    m = SPDManifold(2)
    ray = BusemannRay(np.eye(2), np.diag([1.0, -1.0]))
    x = np.diag([E, 1.0 / E])
    assert m.busemann(ray, x) == pytest.approx(-math.sqrt(2.0), rel=1e-12)
    assert m.busemann(ray, np.eye(2)) == pytest.approx(0.0, abs=1e-14)


def test_busemann_commuting_oracle():
    # simultaneously diagonalizable direction and point at the identity
    m = SPDManifold(3)
    rng = make_rng(5)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        lam_v = rng.standard_normal(3)
        lam_x = np.exp(rng.uniform(-1.5, 1.5, 3))
        v = sym((q * lam_v) @ q.T)
        x = sym((q * lam_x) @ q.T)
        want = -np.sum(lam_v * np.log(lam_x)) / np.linalg.norm(lam_v)
        got = m.busemann(BusemannRay(np.eye(3), v), x)
        assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_busemann_ray_linearity():
    m = SPDManifold(3)
    rng = make_rng(6)
    y = m.random_point(rng)
    v = m.random_tangent(y, rng)
    ray = BusemannRay(y, v)
    nv = m.norm(y, v)
    for tau in (-5.0, -1.5, 0.3, 2.0, 5.0):
        p = m.exp(y, (tau / nv) * v)
        assert m.busemann(ray, p) == pytest.approx(-tau, abs=1e-8)


def test_busemann_grad_base_unit_fd():
    m = SPDManifold(3)
    rng = make_rng(7)
    y = m.random_point(rng)
    v = m.random_tangent(y, rng)
    ray = BusemannRay(y, v)
    got = m.busemann_grad(ray, y)
    assert rel_err(got, -v / m.norm(y, v)) < 1e-10
    for _ in range(5):
        x = m.random_point(rng)
        g = m.busemann_grad(ray, x)
        assert m.norm(x, g) == pytest.approx(1.0, abs=1e-8)
        gfd = fd_riemannian_grad(m, lambda z: m.busemann(ray, z), x)
        assert rel_err(g, gfd) < 1e-5


def test_busemann_geodesic_convexity_and_triangle():
    m = SPDManifold(3)
    rng = make_rng(8)
    for _ in range(30):
        y = m.random_point(rng)
        v = m.random_tangent(y, rng)
        ray = BusemannRay(y, v)
        p1 = m.random_point(rng)
        p2 = m.random_point(rng)
        b1 = m.busemann(ray, p1)
        b2 = m.busemann(ray, p2)
        for t in (0.25, 0.5, 0.75):
            bt = m.busemann(ray, m.geodesic(p1, p2, t))
            assert bt <= (1 - t) * b1 + t * b2 + 1e-10
        assert abs(b1) <= m.dist(y, p1) + 1e-10


def test_busemann_subgradient_inequality():
    m = SPDManifold(3)
    rng = make_rng(9)
    for _ in range(1000):
        q = m.random_point(rng)
        v = m.random_tangent(q, rng)
        p = m.random_point(rng)
        lhs = -m.inner(q, v, m.log(q, p))
        rhs = m.norm(q, v) * m.busemann(BusemannRay(q, v), p)
        assert lhs <= rhs + 1e-9 * (1 + abs(rhs))


def test_frechet_log():
    rng = make_rng(10)
    e = sym(rng.standard_normal((3, 3)))
    np.testing.assert_allclose(frechet_log(np.eye(3), e), e, rtol=1e-12,
                               atol=1e-12)
    a = np.diag([0.7, 0.7])
    e2 = sym(rng.standard_normal((2, 2)))
    np.testing.assert_allclose(frechet_log(a, e2), e2 / 0.7, rtol=1e-12)
    # central-difference oracle
    h = 1e-5
    for _ in range(20):
        a = rand_spd(3, rng)
        e = sym(rng.standard_normal((3, 3)))
        want = (spd_fun(a + h * e, "log") - spd_fun(a - h * e, "log")) \
            / (2 * h)
        assert np.linalg.norm(frechet_log(a, e) - want) <= \
            1e-6 * (1 + np.linalg.norm(want))
    with pytest.raises(DefinitenessError):
        frechet_log(np.diag([1.0, -1.0]), np.eye(2))


def test_congruence_identities():
    m = SPDManifold(3)
    rng = make_rng(11)
    for _ in range(50):
        x = m.random_point(rng)
        y = m.random_point(rng)
        q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, 3))) @ q2.T
        # affine invariance
        lhs = m.dist(sym(a.T @ x @ a), sym(a.T @ y @ a))
        assert abs(lhs - m.dist(x, y)) <= 1e-9 * (1 + m.dist(x, y))
        # two-sided congruence identity with Z = A^T, V = A
        lhs2 = m.dist(sym(a.T @ x @ a), y)
        ainv = np.linalg.inv(a)
        rhs2 = m.dist(x, sym(ainv.T @ y @ ainv))
        assert abs(lhs2 - rhs2) <= 1e-9 * (1 + rhs2)


def test_random_point_validity_and_determinism():
    m = SPDManifold(3)
    rng = make_rng(12)
    for _ in range(1000):
        x = m.random_point(rng)
        m.check_point(x)
    a = m.random_point(make_rng(13))
    b = m.random_point(make_rng(13))
    np.testing.assert_array_equal(a, b)


def test_point_validation_errors():
    m = SPDManifold(2)
    with pytest.raises(DefinitenessError):
        m.check_point(np.diag([1.0, -2.0]))
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(Exception):
        m.check_point(bad)
    # a checked matrix mutated into a non-symmetric one is rejected
    x = np.eye(2)
    m.check_point(x)
    x[0, 1] = 0.5
    with pytest.raises(ValidationError):
        m.dist(x, np.eye(2))


def test_fd_gradient_zero_at_distance_minimizer():
    m = SPDManifold(3)
    g = fd_riemannian_grad(m, lambda x: m.dist(x, np.eye(3)) ** 2, np.eye(3))
    assert np.linalg.norm(g) <= 1e-6
