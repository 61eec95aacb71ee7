"""SPD-manifold kernels: matrix functions, metric maps, horofunction forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hadamard_dc import (BusemannRay, DefinitenessError, SPDManifold,
                         UndefinedGradientError, ValidationError,
                         ZeroDirectionError, fd_riemannian_grad, make_rng)
from hadamard_dc.geometry import chol, frechet_log, logdet, spd_fun, sym
from helpers import rel_err, same

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


def _loop_split(lam):
    """Groups of an ascending spectrum by the per-eigenvalue loop that
    ``_spectral_split`` replaced: (representatives, multiplicities,
    boundaries)."""
    n = lam.size
    gap_tol = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
    reps, mults, bounds = [], [], [0]
    start = 0
    for i in range(1, n + 1):
        if i == n or lam[i] - lam[i - 1] > gap_tol:
            reps.append(float(np.mean(lam[start:i])))
            mults.append(i - start)
            bounds.append(i)
            start = i
    return (np.asarray(reps), np.asarray(mults, dtype=int),
            np.asarray(bounds, dtype=int))


# steps between neighbouring eigenvalues, in units of the grouping
# tolerance 1e-10 max(1, max |lam|): repeated, near-repeated on either side
# of the tolerance, and well apart
_GAP_STEPS = (0.0, 0.0, 0.3, 0.99, 1.0, 1.01, 2.0, 1e7, 3e9)


@settings(max_examples=200, deadline=None)
@given(start=st.floats(-5.0, 5.0), scale=st.sampled_from([1.0, 1e-3, 40.0]),
       steps=st.lists(st.sampled_from(_GAP_STEPS), min_size=0, max_size=7),
       seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
@example(start=1.0, scale=1.0, steps=[0.0, 0.0, 0.0, 0.0], seed=0,
         rotate=False)
@example(start=-2.0, scale=1.0, steps=[1.0, 1.01, 0.99, 0.0], seed=0,
         rotate=False)
def test_spectral_split_matches_loop_bitwise(start, scale, steps, seed,
                                             rotate):
    lam = start + np.concatenate(([0.0], np.cumsum(steps))) * 1e-10 \
        * max(1.0, abs(start) + 1.0)
    lam = scale * lam
    assume(np.any(lam != 0.0))
    n = lam.size
    m = SPDManifold(n)
    v = np.diag(lam)
    if rotate:
        q, _ = np.linalg.qr(np.random.default_rng(seed)
                            .standard_normal((n, n)))
        v = sym((q * lam) @ q.T)
    yih = np.eye(n)
    got = m._spectral_split(yih, v)
    eigenvalues, _ = np.linalg.eigh(sym(yih @ v @ yih))
    reps, mults, bounds = _loop_split(eigenvalues)
    for want, have in ((reps, got.eigenvalues), (mults, got.multiplicities),
                       (bounds, got.boundaries),
                       (np.repeat(reps, mults), got.per_index)):
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)
    assert got.norm_const == float(np.linalg.norm(np.repeat(reps, mults)))


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


def test_frechet_log_far_apart_eigenvalues():
    """An eigenvalue ratio below ~1e-16, where log1p of the rounded ratio
    is -inf, still gives the divided differences
    (ln w_i - ln w_j)/(w_i - w_j), with no RuntimeWarning."""
    w = np.array([1e-17, 1.0, 2.0])
    e = sym(make_rng(13).standard_normal((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = frechet_log(np.diag(w), e)
    lw = np.log(w)
    k = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            k[i, j] = 1.0 / w[i] if i == j else \
                (lw[i] - lw[j]) / (w[i] - w[j])
    np.testing.assert_allclose(got, k * e, rtol=1e-12)


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


# ----------------------------------------------------------------------
# prepared horofunction and linear model against the per-call formulas
# ----------------------------------------------------------------------

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


def reference_busemann(m, y, v, x):
    """The per-call formula: every root and the split rebuilt."""
    if np.linalg.norm(v) == 0.0:
        return m.dist(x, y)
    split = m.spectral_split(y, v)
    yih = spd_fun(y, "invsqrt")
    u = split.basis
    ell = chol(sym(u.T @ yih @ x @ yih @ u))
    return float(-2.0 / split.norm_const *
                 np.sum(split.per_index * np.log(np.diag(ell))))


def reference_busemann_grad(m, y, v, x):
    if np.linalg.norm(v) == 0.0:
        return m._distance_gradient(y, x)
    split = m.spectral_split(y, v)
    yh = spd_fun(y, "sqrt")
    yih = spd_fun(y, "invsqrt")
    u = split.basis
    ell = chol(sym(u.T @ yih @ x @ yih @ u))
    core = ell @ np.diag(split.per_index) @ ell.T
    return sym(-(yh @ u @ core @ u.T @ yh) / split.norm_const)


def reference_linear_model(y, s, x):
    """<S, log_Y X>_Y with every root rebuilt."""
    yh = spd_fun(y, "sqrt")
    c = spd_fun(y, "invsqrt")
    log = sym(yh @ spd_fun(sym(c @ x @ c), "log") @ yh)
    return float(np.einsum("ij,ji->", np.linalg.solve(y, s),
                           np.linalg.solve(y, log)))


def reference_linear_model_grad(y, s, x):
    c = spd_fun(y, "invsqrt")
    egrad = sym(c @ frechet_log(sym(c @ x @ c), sym(c @ s @ c)) @ c)
    return sym(x @ egrad @ x)


def outcome(fn, *args):
    """Result of fn, or the type of the error it raised."""
    try:
        return fn(*args)
    except (DefinitenessError, UndefinedGradientError,
            ValidationError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       log10_cond=st.floats(0.0, 12.0),
       kind=st.sampled_from(["generic", "repeated", "zero"]))
@example(seed=1, n=3, log10_cond=12.0, kind="generic")
@example(seed=2, n=4, log10_cond=1.0, kind="repeated")
@example(seed=3, n=3, log10_cond=12.0, kind="zero")
def test_prepared_horofunction_matches_per_call(seed, n, log10_cond, kind):
    m = SPDManifold(n)
    rng = np.random.default_rng(seed)
    y = conditioned_spd(n, rng, log10_cond)
    v = direction(y, rng, kind)
    # a zero direction is answered by the public calls alone, so only a
    # nonzero one has a prepared horofunction
    horo = None if kind == "zero" else m._horofunction(m._point(y), v)
    if kind == "repeated" and log10_cond <= 4.0:
        assert max(horo.split.multiplicities) >= 2     # grouping path
    ray = BusemannRay(y, v)
    # one prepared object, evaluated in turn at several points as the
    # inner solver does, against fresh per-call evaluations
    for _ in range(3):
        x = conditioned_spd(n, rng, rng.uniform(0.0, log10_cond))
        value = outcome(m.busemann, ray, x)
        assert same(value, outcome(reference_busemann, m, y, v, x))
        grad = outcome(m.busemann_grad, ray, x)
        assert same(grad, outcome(reference_busemann_grad, m, y, v, x))
        if horo is not None:
            # the gradient reuses the Cholesky factor the value put on
            # the point
            pt = m._point(x)
            assert same(outcome(horo.value, pt), value)
            assert same(outcome(horo.grad, pt), grad)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       log10_cond=st.floats(0.0, 12.0))
@example(seed=4, n=5, log10_cond=12.0)
def test_prepared_linear_model_matches_per_call(seed, n, log10_cond):
    m = SPDManifold(n)
    rng = np.random.default_rng(seed)
    y = conditioned_spd(n, rng, log10_cond)
    s = direction(y, rng, "generic")
    model = m._linear_model(m._point(y), s)
    for _ in range(3):
        x = conditioned_spd(n, rng, rng.uniform(0.0, log10_cond))
        # the gradient reuses the spectrum of C X C the value put on the
        # point
        pt = m._point(x)
        assert same(outcome(model.value, pt),
                    outcome(reference_linear_model, y, s, x))
        grad = outcome(model.grad, pt)
        assert same(grad, outcome(reference_linear_model_grad, y, s, x))
        assert same(grad, outcome(m.linear_model_grad, y, s, x))

