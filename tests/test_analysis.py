"""Support inequality, Lipschitz bound, and the Bregman divergence."""

import numpy as np
import pytest

from hadamard_dc import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                         SPDManifold, ZeroDirectionError, bregman_busemann,
                         lipschitz_subgrad_bound_check, make_rng,
                         support_check)


def sq_dist_instance(manifold, rng):
    z = manifold.random_point(rng)
    return (lambda x: manifold.dist(x, z) ** 2,
            lambda x: -2.0 * manifold.log(x, z), z)


@pytest.mark.parametrize("manifold", [Hyperboloid(2), SPDManifold(3)])
def test_support_check_squared_distance(manifold):
    rng = make_rng(0)
    f, subgrad, _ = sq_dist_instance(manifold, rng)
    q = manifold.random_point(rng)
    report = support_check(manifold, f, subgrad, 2.0, q, 1000, rng)
    assert report.samples == 1000
    assert report.violations == 0
    assert report.max_violation <= report.slack
    assert report.witness is None
    assert report.passed


@pytest.mark.parametrize("manifold", [Hyperboloid(2), SPDManifold(3)])
def test_support_check_busemann_function(manifold):
    rng = make_rng(1)
    q0 = manifold.random_point(rng)
    w = manifold.random_tangent(q0, rng)
    ray0 = BusemannRay(q0, w)
    q = manifold.random_point(rng)
    report = support_check(
        manifold, lambda p: manifold.busemann(ray0, p),
        lambda p: manifold.busemann_grad(ray0, p), 0.0, q, 500, rng)
    assert report.violations == 0


def test_support_check_affine_is_exact():
    m = Euclidean(4)
    rng = make_rng(2)
    c = rng.standard_normal(4)
    q = m.random_point(rng)
    report = support_check(m, lambda p: float(c @ p), lambda p: c.copy(),
                           0.0, q, 200, rng, slack=1e-12)
    assert report.violations == 0
    assert abs(report.max_violation) <= 1e-12


def test_support_check_detects_violations():
    # an over-reported subgradient breaks the inequality
    m = Euclidean(3)
    rng = make_rng(3)
    q = m.random_point(rng)
    report = support_check(m, lambda p: float(p @ p),
                           lambda p: 10.0 * p + np.ones(3), 2.0, q, 200, rng)
    assert report.violations > 0
    assert report.witness is not None
    assert not report.passed


def test_support_check_counts_a_nan_gap_as_a_violation():
    """f = NaN makes every gap NaN: each sample violates, and the report
    gives the worst violation as inf (no violation, max_violation -inf
    and passed when NaN failed every comparison)."""
    m = Euclidean(3)
    rng = make_rng(3)
    q = m.random_point(rng)
    report = support_check(m, lambda p: float("nan"), lambda p: np.zeros(3),
                           0.0, q, 20, rng)
    assert report.violations == 20
    assert report.max_violation == np.inf
    assert report.witness is not None
    assert not report.passed


def test_argmin_support_characterization():
    for manifold in (Hyperboloid(2), SPDManifold(3)):
        rng = make_rng(4)
        f, subgrad, _ = sq_dist_instance(manifold, rng)
        q = manifold.random_point(rng)
        s = subgrad(q)
        ns = manifold.norm(q, s)
        ray = BusemannRay(q, s)
        fq = f(q)
        for _ in range(1000):
            p = manifold.random_point_near(q, 5.0, rng)
            psi = f(p) + ns * manifold.busemann(ray, p) \
                - manifold.dist(p, q) ** 2
            assert psi >= fq - 1e-10 * (1 + abs(fq))


def test_lipschitz_subgrad_bound():
    m = Hyperboloid(2)
    rng = make_rng(5)
    z = m.random_point(rng)
    q = m.random_point(rng)
    s = m._distance_gradient(m.point(z), m.point(q))
    f = None
    assert lipschitz_subgrad_bound_check(m, f, 1.0, q, s)
    assert m.norm(q, s) == pytest.approx(1.0, abs=1e-10)
    # scaling by c
    c = 3.7
    assert lipschitz_subgrad_bound_check(m, f, c, q, c * s)
    assert not lipschitz_subgrad_bound_check(m, f, 0.5, q, s)
    # max of two distance functions at a smooth point takes the active
    # branch's gradient, again with unit norm
    z2 = m.random_point(rng)
    for _ in range(20):
        p = m.random_point(rng)
        active = z if m.dist(p, z) >= m.dist(p, z2) else z2
        if abs(m.dist(p, z) - m.dist(p, z2)) < 1e-9:
            continue
        s = m._distance_gradient(m.point(active), m.point(p))
        assert lipschitz_subgrad_bound_check(m, f, 1.0, p, s)


def test_lipschitz_subgrad_bound_checks_once(monkeypatch):
    """One check_point, one check_tangent and (on SPD) two Cholesky
    factorizations per call, the check's and the point's factor, which
    the norm takes, with the result of the public norm (two check_point
    and two check_tangent when the check called the public norm after
    checking q and s itself; one Cholesky when the norm solved with X)."""
    m = SPDManifold(3)
    rng = make_rng(8)
    q = m.random_point(rng)
    s = m.random_tangent(q, rng)
    bound = m.norm(q, s)
    counts = {"check_point": 0, "check_tangent": 0, "cholesky": 0}
    check_point, check_tangent = SPDManifold.check_point, \
        SPDManifold.check_tangent
    cholesky = np.linalg.cholesky

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SPDManifold, "check_point",
                        counted("check_point", check_point))
    monkeypatch.setattr(SPDManifold, "check_tangent",
                        counted("check_tangent", check_tangent))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", cholesky))
    # the largest limit that fails and the smallest that passes
    passing = bound - 1e-10
    for limit, want in ((float(np.nextafter(passing, 0.0)), False),
                        (passing, True)):
        counts.update(dict.fromkeys(counts, 0))
        assert lipschitz_subgrad_bound_check(m, None, limit, q, s) is want
        assert counts == {"check_point": 1, "check_tangent": 1,
                          "cholesky": 2}


def test_bregman_basics():
    m = Euclidean(3)
    rng = make_rng(6)
    q = m.random_point(rng)
    p = m.random_point(rng)

    def psi(x):
        return 0.5 * float(x @ x)

    def psi_grad(x):
        return x.copy()

    assert bregman_busemann(m, psi, psi_grad, q, q) == pytest.approx(0.0,
                                                                     abs=1e-14)
    want = 0.5 * float((p - q) @ (p - q))
    assert bregman_busemann(m, psi, psi_grad, p, q) == pytest.approx(
        want, rel=1e-12)


def test_bregman_zero_gradient_convention():
    m = Euclidean(3)
    rng = make_rng(7)
    z = m.random_point(rng)
    psi = lambda x: float((x - z) @ (x - z))
    psi_grad = lambda x: 2.0 * (x - z)
    p = m.random_point(rng)
    # grad psi(z) = 0: the product term is defined as zero
    assert bregman_busemann(m, psi, psi_grad, p, z) == pytest.approx(
        psi(p), rel=1e-12)


@pytest.mark.parametrize("manifold", [Hyperboloid(2), SPDManifold(3)])
def test_bregman_nonnegative_and_convex(manifold):
    rng = make_rng(8)
    z = manifold.random_point(rng)

    def psi(x):
        return manifold.dist(x, z) ** 2

    def psi_grad(x):
        return -2.0 * manifold.log(x, z)

    for _ in range(1000):
        p = manifold.random_point(rng)
        q = manifold.random_point(rng)
        assert bregman_busemann(manifold, psi, psi_grad, p, q) >= -1e-9
    # midpoint convexity in the first argument
    for _ in range(50):
        q = manifold.random_point(rng)
        p1 = manifold.random_point(rng)
        p2 = manifold.random_point(rng)
        d1 = bregman_busemann(manifold, psi, psi_grad, p1, q)
        d2 = bregman_busemann(manifold, psi, psi_grad, p2, q)
        mid = manifold.geodesic(p1, p2, 0.5)
        dm = bregman_busemann(manifold, psi, psi_grad, mid, q)
        assert dm <= 0.5 * d1 + 0.5 * d2 + 1e-10


@pytest.mark.parametrize("manifold", [Hyperboloid(2), SPDManifold(3)])
def test_support_terms_build_one_horofunction_per_call(manifold,
                                                       monkeypatch):
    """support_check and bregman_busemann build B_{q,s} once per call and
    evaluate it at every sample, instead of once per sample."""
    rng = make_rng(9)
    f, subgrad, _ = sq_dist_instance(manifold, rng)
    q = manifold.random_point(rng)
    p = manifold.random_point(rng)
    builds = []
    horofunction = type(manifold)._horofunction

    def counted(self, q, v):
        builds.append(v)
        return horofunction(self, q, v)

    monkeypatch.setattr(type(manifold), "_horofunction", counted)
    assert support_check(manifold, f, subgrad, 2.0, q, 50, rng).passed
    assert len(builds) == 1
    assert bregman_busemann(manifold, f, subgrad, p, q) >= -1e-9
    assert len(builds) == 2


def test_support_terms_subgradient_norm_underflow_raises():
    # s = 0 is decided on the array, as in make_b_subproblem; a nonzero s
    # whose norm |s / q| underflows reaches the horofunction, which raises
    m = DikinOrthant(3)
    q = np.full(3, 1e200)
    f = lambda x: 0.0
    tiny = lambda x: np.full(3, 1e-100)
    with pytest.raises(ZeroDirectionError):
        support_check(m, f, tiny, 0.0, q, 10, make_rng(0))
    with pytest.raises(ZeroDirectionError):
        bregman_busemann(m, f, tiny, np.ones(3), q)


@pytest.mark.parametrize("samples, radius, slack", [
    (0, 5.0, 1e-9), (-1, 5.0, 1e-9), (2.5, 5.0, 1e-9),
    (10, 5.0, float("nan")), (10, 5.0, float("inf")), (10, 5.0, -1e-9),
    (10, float("nan"), 1e-9), (10, float("inf"), 1e-9), (10, -1.0, 1e-9),
])
def test_support_check_rejects_vacuous_arguments(samples, radius, slack):
    """No samples, a fractional count, or a slack or radius no sample can
    be judged by would report a pass without a test; each raises before
    f is called."""
    def f(x):
        raise AssertionError("f evaluated")

    with pytest.raises(ValueError):
        support_check(Euclidean(2), f, f, 0.0, np.zeros(2), samples,
                      make_rng(0), radius=radius, slack=slack)


@pytest.mark.parametrize("const", [float("nan"), float("inf"), -1.0])
def test_support_and_lipschitz_checks_reject_bad_constants(const):
    """A sigma or Lipschitz constant outside [0, inf) raises ValueError:
    sigma -1 would pass every sample and NaN fail every one, and a NaN
    constant would fail every subgradient."""
    def f(x):
        raise AssertionError("f evaluated")

    m = Euclidean(2)
    with pytest.raises(ValueError):
        support_check(m, f, f, const, np.zeros(2), 10, make_rng(0))
    with pytest.raises(ValueError):
        lipschitz_subgrad_bound_check(m, None, const, np.zeros(2),
                                      np.zeros(2))
