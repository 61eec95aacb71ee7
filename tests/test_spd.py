"""SPD-manifold kernels: matrix functions, metric maps, horofunction forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from hadamard_dc import (BusemannRay, DefinitenessError, NumericalDomainError,
                         SPDManifold, UndefinedGradientError, ValidationError,
                         ZeroDirectionError, fd_riemannian_grad, make_rng)
from hadamard_dc.geometry import (SPDDistanceSum, chol, frechet_log, logdet,
                                  spd_fun, sym)
from helpers import (conditioned_spd, direction, examples,
                     near_center_sampler, primitive_counter, rel_err, same)

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


@settings(max_examples=examples(200), deadline=None)
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
    got = m._spectral_split(v)
    eigenvalues, _ = np.linalg.eigh(v)
    reps, mults, bounds = _loop_split(eigenvalues)
    for want, have in ((reps, got.eigenvalues), (mults, got.multiplicities),
                       (bounds, got.boundaries),
                       (np.repeat(reps, mults), got.per_index)):
        assert have.dtype == want.dtype
        assert np.array_equal(have, want)
    assert got.norm_const == float(np.linalg.norm(np.repeat(reps, mults)))


def _numpy_split(w):
    """The split of a congruence W as ``_spectral_split`` formed it with
    numpy's array functions before it found its groups on a list: the
    fields of :class:`SpectralSplit`, in order."""
    lam, u = np.linalg.eigh(w)
    gap_tol = 1e-10 * max(1.0, float(np.max(np.abs(lam))))
    cuts = np.flatnonzero(np.diff(lam) > gap_tol) + 1
    bounds = np.concatenate(([0], cuts, [lam.size]))
    mults = np.diff(bounds)
    reps = lam[bounds[:-1]]
    for i in np.flatnonzero(mults > 1):
        reps[i] = np.mean(lam[bounds[i]:bounds[i + 1]])
    per_index = np.repeat(reps, mults)
    return (reps, mults, u, bounds, float(np.linalg.norm(per_index)),
            per_index)


@settings(max_examples=examples(200), deadline=None)
@given(start=st.floats(-5.0, 5.0), log2_scale=st.integers(-60, 60),
       steps=st.lists(st.sampled_from(_GAP_STEPS), min_size=0, max_size=39),
       seed=st.integers(0, 2**32 - 1), rotate=st.booleans())
@example(start=1.0, log2_scale=0, steps=[0.0] * 39, seed=0, rotate=False)
@example(start=-3.0, log2_scale=-40, steps=[0.0] * 39, seed=1, rotate=True)
@example(start=0.5, log2_scale=0, steps=[], seed=0, rotate=False)
@example(start=-2.0, log2_scale=30, steps=[1.0, 1.01, 0.99, 0.0, 0.3],
         seed=2, rotate=True)
def test_spectral_split_matches_the_numpy_grouping(start, log2_scale, steps,
                                                   seed, rotate):
    """The split's groups, found on ``lam.tolist()``, are the bytes of the
    numpy grouping (``np.diff``, ``np.repeat``, ``np.linalg.norm``) on
    spectra of n = 1..40 with distinct, repeated and near-repeated
    eigenvalues on both sides of the gap tolerance, all equal, and
    scaled by 2^-60..2^60."""
    lam = start + np.concatenate(([0.0], np.cumsum(steps))) * 1e-10 \
        * max(1.0, abs(start) + 1.0)
    lam = np.ldexp(lam, log2_scale)
    assume(np.any(lam != 0.0))
    n = lam.size
    w = np.diag(lam)
    if rotate:
        q, _ = np.linalg.qr(np.random.default_rng(seed)
                            .standard_normal((n, n)))
        w = sym((q * lam) @ q.T)
    got = SPDManifold(n)._spectral_split(w)
    fields = (got.eigenvalues, got.multiplicities, got.basis, got.boundaries,
              got.norm_const, got.per_index)
    for have, want in zip(fields, _numpy_split(w)):
        assert type(have) is type(want)
        assert np.asarray(have).dtype == np.asarray(want).dtype
        assert np.asarray(have).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       log10_cond=st.floats(0.0, 8.0), refs=st.integers(0, 3),
       transposed=st.booleans())
@example(seed=0, n=5, log10_cond=0.0, refs=3, transposed=True)
@example(seed=1, n=1, log10_cond=8.0, refs=0, transposed=False)
def test_kernels_match_their_numpy_wrapper_forms(seed, n, log10_cond, refs,
                                                 transposed):
    """Each per-step SPD kernel that takes an ndarray method or a dot
    where it called np.sum, np.any, np.max, np.diag or np.linalg.norm
    returns the bits of the numpy form: the metric, the distance, the
    search ray's speed and largest |eigenvalue|, the horofunction's value
    and its support scale, the linear model's value, and the distance
    sum's value and gradient.  With ``transposed`` the tangents are
    F-ordered, and every |W|_F takes its entries in memory order, as
    ``np.linalg.norm`` does."""
    rng = make_rng(seed)
    m = SPDManifold(n)
    near_center = near_center_sampler(n, rng, log10_cond)
    y, x = m.point(near_center()), m.point(near_center())
    u, v = m.random_tangent(y.x, rng), m.random_tangent(y.x, rng)
    if transposed:
        u, v = u.T, v.T
    c = y.factor[1]

    def cong(a):
        return sym(c @ a @ c.T)

    assert m._inner(y, u, v) == float(np.sum(cong(u) * cong(v)))
    assert m._norm(y, v) == float(np.linalg.norm(cong(v)))
    assert m._dist(x, y) == float(np.linalg.norm(np.log(
        np.linalg.eigvalsh(cong(x.x)))))
    ray = m._ray(y, v)
    assert ray.speed == float(np.linalg.norm(cong(v)))
    assert ray.top == float(np.max(np.abs(np.linalg.eigh(cong(v))[0])))
    term, scale = m._support_term(y, v)
    assert scale == float(np.linalg.norm(cong(v)))
    ell = chol(term.ut_c @ x.x @ term.ut_c.T)
    assert term.value(x) == float(-2.0 / term.split.norm_const * np.sum(
        term.split.per_index * np.log(np.diag(ell))))
    model = m._linear_model(y, v)
    w, basis = np.linalg.eigh(sym(model.c @ x.x @ model.c.T))
    assert model.value(x) == float(
        np.sum(basis * (model.csc @ basis), axis=0) @ np.log(w))

    stack = np.array([near_center() for _ in range(refs)]).reshape(
        refs, n, n)
    weights = rng.uniform(-1.0, 2.0, refs)
    dist_sum = SPDDistanceSum(chol(stack), weights)
    mu, vecs = np.linalg.eigh(sym(dist_sum.c @ x.x
                                  @ dist_sum.c.swapaxes(-1, -2)))
    log_mu = np.log(mu)
    assert dist_sum.value(x) == float(weights @ np.sum(log_mu * log_mu,
                                                       axis=-1))
    a = dist_sum.lower @ vecs
    scaled = weights[:, None] * (mu * log_mu)
    want = sym(2.0 * np.sum((a * scaled[:, None, :]) @ a.swapaxes(-1, -2),
                            axis=0))
    assert dist_sum.grad(x).tobytes() == want.tobytes()


@settings(max_examples=examples(100), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
       cols=st.integers(1, 40), layout=st.sampled_from(["C", "T", "slice"]))
@example(seed=0, rows=40, cols=37, layout="T")
def test_frobenius_is_the_bits_of_numpy_norm(seed, rows, cols, layout):
    """``_frobenius`` takes the entries in memory order, as
    ``np.linalg.norm`` does, on C-ordered, transposed and strided
    arrays."""
    from hadamard_dc.geometry import spd

    a = np.random.default_rng(seed).standard_normal((rows, cols))
    a = {"C": a, "T": a.T, "slice": a[:, ::2]}[layout]
    assert spd._frobenius(a) == float(np.linalg.norm(a))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_busemann_of_a_direction_whose_congruence_overflows():
    """With Y = diag(1e-200, 1) and V = diag(1e200, 1) the congruence
    L^-1 V L^-T = diag(1e400, 1) overflows (busemann gave nan and
    busemann_grad a NaN matrix, each after an overflow warning).  B does
    not depend on the direction's scale, so the ray is split after a
    scaling by a power of two, and B and its gradient are the closed form
    of the commuting case, -ln(1e200 x_11) and -e_1 e_1^T at X = I.  The
    subproblem's scale |V|_Y = 1e400 overflows, so ``_support_term``
    raises (it returned an inf scale)."""
    m = SPDManifold(2)
    y, v = np.diag([1e-200, 1.0]), np.diag([1e200, 1.0])
    ray = BusemannRay(y, v)
    assert m.busemann(ray, np.eye(2)) == pytest.approx(-math.log(1e200),
                                                      rel=1e-14)
    assert m.busemann(ray, np.diag([2.0, 3.0])) == pytest.approx(
        -math.log(2e200), rel=1e-14)
    np.testing.assert_allclose(m.busemann_grad(ray, np.eye(2)),
                               [[-1.0, 0.0], [0.0, 0.0]], atol=1e-14)
    with pytest.raises(NumericalDomainError, match="overflows"):
        m._support_term(m.point(y), v)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_public_norm_and_split_of_an_overflowing_congruence():
    """On the ray of the test above, |V|_Y = 1e400 and the congruence
    diag(1e400, 1) overflow: ``norm`` returned inf and ``spectral_split``
    NaN eigenvalues, each after an overflow warning; both raise.  Where
    the shift's bound fires but the results are finite, the norm is
    2^e |2^-e V|_Y (it was inf, since the squares of np.linalg.norm
    overflowed) and the split is that of the unscaled congruence."""
    m = SPDManifold(2)
    y, v = np.diag([1e-200, 1.0]), np.diag([1e200, 1.0])
    with pytest.raises(NumericalDomainError, match="overflows"):
        m.norm(y, v)
    with pytest.raises(NumericalDomainError, match="overflows"):
        m.spectral_split(y, v)
    assert m.norm(np.eye(2), v) == 1e200
    with pytest.raises(NumericalDomainError, match="overflows"):
        m.spectral_split(np.eye(2), v)      # norm_const would be inf
    loose = np.diag([1e-260, 1e100])        # congruence diag(1e-60, 1e100)
    assert m.norm(y, loose) == pytest.approx(1e100, rel=1e-15)
    split = m.spectral_split(y, loose)
    np.testing.assert_allclose(split.eigenvalues, [1e-60, 1e100],
                               rtol=1e-15)
    np.testing.assert_array_equal(split.multiplicities, [1, 1])
    assert split.norm_const == pytest.approx(1e100, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_public_exp_and_inner_of_an_overflowing_congruence():
    """On the same ray ``exp`` returned a NaN matrix and ``inner`` inf,
    each after an overflow warning; both raise.  Where the congruence is
    finite but the inner product overflows, ``inner`` raises too, and a
    finite congruence whose exponential overflows keeps the guard's
    OverflowError."""
    m = SPDManifold(2)
    y, v = np.diag([1e-200, 1.0]), np.diag([1e200, 1.0])
    with pytest.raises(NumericalDomainError, match="congruence"):
        m.exp(y, v)
    with pytest.raises(NumericalDomainError, match="inner product"):
        m.inner(y, v, v)
    big = np.diag([1e100, 1.0])                 # congruence diag(1e300, 1)
    with pytest.raises(NumericalDomainError, match="inner product"):
        m.inner(y, big, big)
    assert m.inner(y, big, 1e-300 * np.eye(2)) == pytest.approx(
        1e200, rel=1e-15)
    with pytest.raises(OverflowError, match="overflow guard"):
        m.exp(y, big)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_public_linear_model_grad_of_an_overflowing_congruence():
    """On the same ray the public ``linear_model_grad`` at X = I returned
    a NaN matrix after an overflow warning in the model's C S C^T; it
    raises, and a finite gradient at the same point is unchanged."""
    m = SPDManifold(2)
    y, s = np.diag([1e-200, 1.0]), np.diag([1e200, 1.0])
    with pytest.raises(NumericalDomainError, match="not finite"):
        m.linear_model_grad(y, s, np.eye(2))
    small = np.diag([1e-200, 1.0])
    np.testing.assert_array_equal(
        m.linear_model_grad(y, small, np.eye(2)),
        m._linear_model(m.point(y), small).grad(m.point(np.eye(2))))


def test_symmetry_test_rejects_huge_non_symmetric_matrices():
    """A non-symmetric matrix whose Frobenius norm overflows is rejected,
    with no RuntimeWarning (1 + |X|_F was inf, so the test passed it)."""
    m = SPDManifold(2)
    bad = np.array([[1e300, 1e300], [0.0, 1e300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="point is not symmetric"):
            m.check_point(bad)
        with pytest.raises(ValidationError,
                           match="tangent is not symmetric"):
            m.check_tangent(np.eye(2), bad)
        huge = np.array([[1e308, -1e308], [-1e308, 1e308]])
        assert m.check_tangent(np.eye(2), huge) is not None
        m.check_point(np.diag([1e300, 1e300]))


@settings(max_examples=examples(200), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
       log10_scale=st.floats(-300.0, 300.0),
       log10_skew=st.one_of(st.floats(-20.0, -14.0), st.floats(-6.0, 0.0)))
@example(seed=0, n=2, log10_scale=300.0, log10_skew=0.0)
@example(seed=1, n=5, log10_scale=153.0, log10_skew=-6.0)
@example(seed=2, n=3, log10_scale=-300.0, log10_skew=0.0)
def test_symmetry_test_is_scale_free(seed, n, log10_scale, log10_skew):
    """X = scale (S + skew K), S symmetric with |S|_F >= 1 and K
    antisymmetric with entries +-1: the symmetry test of points and
    tangents is the former unscaled test wherever that test's norms are
    finite, and from scale 1e11 on (where the "1 +" of 1 + |X|_F is
    negligible) it rejects X exactly when the skew is large, also where
    |X|_F overflows, with no RuntimeWarning."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    k = np.triu(np.ones((n, n)), 1)
    x = 10.0 ** log10_scale * (np.eye(n) + (a + a.T) / (4 * n)
                               + 10.0 ** log10_skew * (k - k.T))
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x)
        former = np.linalg.norm(x - x.T) > 1e-10 * (1.0 + norm)
    m = SPDManifold(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m.check_tangent(np.eye(n), x)
            rejected = False
        except ValidationError:
            rejected = True
    if np.isfinite(norm):
        assert rejected == former
    if log10_scale >= 11.0:
        assert rejected == (n > 1 and log10_skew > -10.0)


def test_kernels_at_a_point_take_its_factor():
    """Given a point whose factor (L, L^-1) is already computed, the
    public spectral_split, random_tangent, tangent_basis, inner, norm,
    exp and log and the limit oracle's ray probe do not compute it again:
    one eigh each for the split, exp, log and the probe, none for the
    samplers and the metric, which run on L, no inverse and no solve,
    and two Cholesky factorizations, the check of log's array argument
    and the probe's reduced point."""
    m = SPDManifold(3)
    rng = make_rng(41)
    y = m.point(m.random_point(rng))
    y.factor
    v = m.random_tangent(y, rng)
    x = m.random_point(rng)
    x_pt = m.point(x)
    with primitive_counter() as counter:
        m.spectral_split(y, v)
        m.random_tangent(y, rng)
        m.tangent_basis(y)
        m.inner(y, v, v)
        m.exp(y, v)
        m.log(y, x)
        m._ray_probe(y, v / m.norm(y, v), x_pt)
    assert counter.counts["factor"] == counter.counts["inv"] == 0
    assert counter.counts["solve"] == 0
    assert counter.counts["eigh"] == 4
    assert counter.counts["cholesky"] == 2


def test_stepped_point_keeps_the_factor_of_its_test():
    """A point made by a ray's ``step`` keeps the Cholesky factor that its
    definiteness test computed: taking its factor costs one inv and no
    Cholesky factorization.  A point made by ``point`` after
    check_point factors itself on first use, to the bytes of the test's
    factor, and so does one made from an array without a check.  The
    public dist makes the two Cholesky tests of its checks, one Cholesky
    factorization and one inv for the factor of q, one eigvalsh and no
    eigh."""
    m = SPDManifold(4)
    rng = make_rng(43)
    x = m.random_point(rng)
    y = m.point(x)
    ray = m._ray(y, m.random_tangent(y, rng))
    stepped = ray.step(0.5)
    for p, cholesky in ((stepped, 0), (m.point(x), 1), (m._point(x), 1)):
        with primitive_counter() as counter:
            lower, inverse = p.factor
        assert (counter.counts["cholesky"], counter.counts["inv"]) \
            == (cholesky, 1)
        assert np.array_equal(lower, np.linalg.cholesky(sym(p.x)))
        assert np.array_equal(inverse, np.linalg.inv(lower))
    with primitive_counter() as counter:
        m.dist(x, stepped.x)
    assert {op: counter.counts[op] for op in
            ("check_point", "cholesky", "inv", "eigvalsh", "eigh")} \
        == {"check_point": 2, "cholesky": 3, "inv": 1, "eigvalsh": 1,
            "eigh": 0}


def test_fd_gradient_zero_at_distance_minimizer():
    m = SPDManifold(3)
    g = fd_riemannian_grad(m, lambda x: m.dist(x, np.eye(3)) ** 2, np.eye(3))
    assert np.linalg.norm(g) <= 1e-6


# ----------------------------------------------------------------------
# prepared horofunction and linear model against the per-call formulas
# ----------------------------------------------------------------------

def reference_factor(y):
    """(L, L^-1), L the lower Cholesky factor of Y, rebuilt per call."""
    lower = chol(y)
    return lower, np.linalg.inv(lower)


def reference_busemann(m, y, v, x):
    """The per-call formula: the factor L of Y and the split rebuilt, and
    the Cholesky factor of U^T L^-1 X L^-T U."""
    if np.linalg.norm(v) == 0.0:
        return m.dist(x, y)
    split = m.spectral_split(y, v)
    uc = split.basis.T @ reference_factor(y)[1]
    ell = chol(sym(uc @ x @ uc.T))
    return float(-2.0 / split.norm_const *
                 np.sum(split.per_index * np.log(np.diag(ell))))


def reference_busemann_grad(m, y, v, x):
    """-(L U l) D (L U l)^T / |lam| with every factor rebuilt."""
    if np.linalg.norm(v) == 0.0:
        return m._distance_gradient(m.point(y), m.point(x))
    split = m.spectral_split(y, v)
    lower, c = reference_factor(y)
    u = split.basis
    uc = u.T @ c
    a = lower @ u @ chol(sym(uc @ x @ uc.T))
    return sym(-((a * split.per_index) @ a.T) / split.norm_const)


def reference_linear_model(y, s, x):
    """<S, log_Y X>_Y = tr(C S C^T Log(C X C^T)), C = L^-1 with L the
    Cholesky factor of Y, with every factor rebuilt: sum_j ln w_j
    u_j^T (C S C^T) u_j over the spectrum (w, u) of C X C^T."""
    c = reference_factor(y)[1]
    w, u = np.linalg.eigh(sym(c @ x @ c.T))
    if np.any(w <= 0.0):
        raise DefinitenessError("C X C^T is not positive definite")
    return float(np.sum(u * (sym(c @ s @ c.T) @ u), axis=0) @ np.log(w))


def reference_linear_model_grad(y, s, x):
    """X C^T D Log(C X C^T)[C S C^T] C X with every factor rebuilt."""
    c = reference_factor(y)[1]
    egrad = sym(c.T @ frechet_log(sym(c @ x @ c.T), sym(c @ s @ c.T)) @ c)
    return sym(x @ egrad @ x)


def outcome(fn, *args):
    """Result of fn, or the type of the error it raised."""
    try:
        return fn(*args)
    except (DefinitenessError, UndefinedGradientError, ValidationError,
            OverflowError) as exc:
        return type(exc)


@settings(max_examples=examples(60), deadline=None)
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


@settings(max_examples=examples(40), deadline=None)
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



def mp_sq_dist_sum(x, weights, refs):
    """sum_i w_i d^2(X, R_i) and -2 sum_i w_i log_X(R_i) in mpmath at the
    working precision, through the other form of the log, X^1/2 Log(X^-1/2
    R X^-1/2) X^1/2, with every spectrum from ``mp.eigsy``."""
    def spectral(a, fn):
        w, u = mp.eigsy(a)
        return u * mp.diag([fn(t) for t in w]) * u.T, w

    xm = mp.matrix(x.tolist())
    xh, _ = spectral(xm, mp.sqrt)
    xih, _ = spectral(xm, lambda t: 1 / mp.sqrt(t))
    value = mp.mpf(0)
    grad = mp.zeros(*x.shape)
    for w, r in zip(weights, refs):
        w = mp.mpf(float(w))
        c = xih * mp.matrix(r.tolist()) * xih
        log, mu = spectral((c + c.T) / 2, mp.log)
        value += w * sum(mp.log(t) ** 2 for t in mu)
        grad += -2 * w * (xh * log * xh)
    return value, grad


def test_distance_sum_raises_where_the_congruence_loses_definiteness():
    """A point and two references drawn independently with eigenvalues
    10^(+-5) on SPD(4), the family of the FOUND on SPDDistanceSum: the
    stacked spectrum of L_i^-1 X L_i^-T has a nonpositive mu, which is a
    DefinitenessError of the value and of the gradient, not a NaN."""
    rng = np.random.default_rng(0)
    x = conditioned_spd(4, rng, 10.0)
    refs = np.array([conditioned_spd(4, rng, 10.0) for _ in range(2)])
    dist_sum = SPDDistanceSum(chol(refs), np.ones(2))
    pt = SPDManifold(4).point(x)
    for evaluate in (dist_sum.value, dist_sum.grad):
        with pytest.raises(DefinitenessError, match="distance sum"):
            evaluate(pt)


@pytest.mark.parametrize("log10_cond", [0, 2, 6, 10])
@settings(max_examples=examples(4), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_distance_sum_against_mpmath(log10_cond, seed):
    """Value and gradient of SPDDistanceSum on SPD(4) against 50-digit
    references.  The point and two references are geodesic perturbations
    (spread e^+-1) of a center with eigenvalues 10^(+-c/2), c =
    ``log10_cond``, as the contrastive instances are of theirs.  Relative
    errors stay below 64 eps 10^c (value) and 256 eps 10^c (gradient,
    Frobenius); over 150 draws per c the worst were 12.5 and 45 eps 10^c,
    both at c = 0 (``notes/decisions.md``)."""
    n = 4
    rng = np.random.default_rng(seed)
    near_center = near_center_sampler(n, rng, log10_cond)

    x = near_center()
    refs = np.array([near_center() for _ in range(2)])
    weights = rng.uniform(0.5, 2.0, 2)
    dist_sum = SPDDistanceSum(chol(refs), weights)
    pt = SPDManifold(n).point(x)
    with mp.workdps(50):
        want_value, want_grad = mp_sq_dist_sum(x, weights, refs)
        value_err = abs(mp.mpf(dist_sum.value(pt)) - want_value) \
            / abs(want_value)
        grad_err = mp.norm(mp.matrix(dist_sum.grad(pt).tolist())
                           - want_grad) / mp.norm(want_grad)
    unit = float(np.finfo(float).eps) * 10.0 ** log10_cond
    assert float(value_err) <= 64 * unit
    assert float(grad_err) <= 256 * unit


def mp_linear_model(y, s, x):
    """<S, log_Y X>_Y = tr(C S C Log(C X C)), C = Y^-1/2, and its
    Cauchy-Schwarz bound |S|_Y d(Y, X) = |C S C|_F |Log(C X C)|_F, in
    mpmath at the working precision, with every spectrum from
    ``mp.eigsy``."""
    def spectral(a, fn):
        w, u = mp.eigsy(a)
        return u * mp.diag([fn(t) for t in w]) * u.T

    c = spectral(mp.matrix(y.tolist()), lambda t: 1 / mp.sqrt(t))
    cxc = c * mp.matrix(x.tolist()) * c
    log = spectral((cxc + cxc.T) / 2, mp.log)
    csc = c * mp.matrix(s.tolist()) * c
    value = sum((csc * log)[i, i] for i in range(y.shape[0]))
    return value, mp.norm(csc) * mp.norm(log)


@pytest.mark.parametrize("log10_cond", [0, 2, 4, 6])
@settings(max_examples=examples(4), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_linear_model_against_mpmath(log10_cond, seed):
    """Value of SPDLinearModel on SPD(4) against 50-digit references.  X_k
    and X are geodesic perturbations (spread e^+-1) of a center with
    eigenvalues 10^(+-c/2), c = ``log10_cond``, as the iterates of one
    contrastive run are, and S = X_k^1/2 W X_k^1/2 with W symmetric and
    Gaussian.  The error relative to the Cauchy-Schwarz bound
    |S|_{X_k} d(X_k, X) of the value, which a value near 0 does not
    inflate, stays below 64 eps 10^c; over 180 draws per c the worst was
    14.3 eps at c = 0 and 1.3 eps 10^c at c = 2, 4, 6
    (``notes/decisions.md``)."""
    n = 4
    rng = np.random.default_rng(seed)
    near_center = near_center_sampler(n, rng, log10_cond)

    xk, x = near_center(), near_center()
    s = direction(xk, rng, "generic")
    m = SPDManifold(n)
    value = m._linear_model(m.point(xk), s).value(m.point(x))
    with mp.workdps(50):
        want, bound = mp_linear_model(xk, s, x)
        err = abs(mp.mpf(value) - want) / bound
    assert float(err) <= 64 * float(np.finfo(float).eps) * 10.0 ** log10_cond


def former_exp(y, v):
    """exp_Y(V) as the SPD kernel formed it before the ray: the roots
    rebuilt, one eigendecomposition of Y^-1/2 V Y^-1/2 per call, and
    Y^1/2 Exp(Y^-1/2 V Y^-1/2) Y^1/2."""
    yh, yih = spd_fun(y, "sqrt"), spd_fun(y, "invsqrt")
    w, u = np.linalg.eigh(sym(yih @ v @ yih))
    if np.max(np.abs(w)) > 700.0:
        raise OverflowError("exponential map argument exceeds the guard")
    return sym(yh @ sym((u * np.exp(w)) @ u.T) @ yh)


# log10 ranges of t max|lam| for the ray test: exp_Y(t D) with condition
# number at most 1e8 e^10 (about 2e12), which both forms keep definite;
# far above 1e14, where rounding decides definiteness in both forms; past
# the overflow guard 700
_REACH = {"definite": (-8.0, math.log10(5.0)),
          "rounding": (math.log10(5.0), math.log10(690.0)),
          "overflow": (math.log10(710.0), 4.0)}


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       log10_cond=st.floats(0.0, 8.0), reach=st.sampled_from(list(_REACH)),
       nan=st.booleans())
@example(seed=0, n=5, log10_cond=8.0, reach="definite", nan=False)
@example(seed=1, n=4, log10_cond=8.0, reach="rounding", nan=False)
@example(seed=2, n=3, log10_cond=4.0, reach="overflow", nan=False)
@example(seed=3, n=2, log10_cond=1.0, reach="definite", nan=True)
def test_ray_matches_former_checked_exp(seed, n, log10_cond, reach, nan):
    """``_ray(Y, D).step(t)`` against ``check_point(former_exp(Y, t D))``
    on Y with condition number 10^c, c <= 8, and t max|lam| drawn from
    ``_REACH``.  The two raise the same error type, except that in the
    "rounding" reach either may raise DefinitenessError where the other
    does not.  Otherwise the trial is exactly symmetric and within a
    relative (Frobenius) distance of 64 eps 10^c of the former map in the
    "definite" reach and 1024 eps 10^c in the "rounding" reach; over
    20,000 draws each the worst were 21 and 262 eps 10^c.  The speed
    |lam|_2 is within 32 eps 10^c of ``_norm(Y, D)`` (worst 9.0 eps 10^c
    over 40,000 draws)."""
    m = SPDManifold(n)
    rng = np.random.default_rng(seed)
    y = conditioned_spd(n, rng, log10_cond)
    d = direction(y, rng, "generic")
    yp = m._point(y)
    lo, hi = _REACH[reach]
    t = 10.0 ** rng.uniform(lo, hi) / m._ray(yp, d).top
    if nan:
        d[0, 0] = math.nan
    ray = m._ray(yp, d)
    got = outcome(ray.step, t)
    if nan:
        # the former map raised LinAlgError or ValidationError, as its eigh
        # did or did not converge on the NaN; the ray has speed NaN, so no
        # line search runs along it, and its step raises ValidationError
        assert math.isnan(ray.speed)
        assert got is ValidationError
        return
    unit = float(np.finfo(float).eps) * 10.0 ** log10_cond
    norm = m._norm(yp, d)
    assert abs(ray.speed - norm) <= 32 * unit * norm
    want = outcome(lambda: m.check_point(former_exp(y, t * d)))
    raised = {r for r in (got, want) if isinstance(r, type)}
    if reach == "rounding" and raised == {DefinitenessError}:
        return
    if raised:
        assert got is want
        return
    x = got.x
    assert type(got) is type(yp)
    assert x.tobytes() == np.ascontiguousarray(x.T).tobytes()
    scale = np.max(np.abs(want))           # entries may be near 1e300
    diff = np.linalg.norm(x / scale - want / scale) \
        / np.linalg.norm(want / scale)
    assert diff <= (64 if reach == "definite" else 1024) * unit


def test_ray_speed_is_inf_where_a_finite_congruence_overflows():
    """A finite W = L^-1 D L^-T whose Frobenius norm overflows has speed
    inf, as |lam|_2 from its eigendecomposition did; only a W that is not
    finite has speed NaN."""
    m = SPDManifold(2)
    y = m.point(np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        ray = m._ray(y, np.diag([1e300, -1e300]))
        assert math.isnan(m._ray(y, np.diag([math.inf, 1.0])).speed)
    assert np.isfinite(ray.w).all()
    assert ray.speed == math.inf


def test_log_singular_values_falls_back_to_the_standard_svd(monkeypatch):
    """A Jacobi SVD that reports info != 0 warns once and takes the
    standard SVD, whose logs match the converged ones on a
    well-conditioned triangular factor."""
    from hadamard_dc.geometry import spd

    a = chol(rand_spd(4, make_rng(17)))
    want = spd._log_singular_values(a)
    jacobi = spd.dgejsv

    def unconverged(a, **options):
        *out, _ = jacobi(a, **options)
        return (*out, 1)

    monkeypatch.setattr(spd, "dgejsv", unconverged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = spd._log_singular_values(a)
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning,
         "dgejsv did not converge, falling back to standard SVD")]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
