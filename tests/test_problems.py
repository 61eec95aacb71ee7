"""Benchmark problem families: construction, gradients, optima metadata."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_dc import (AcademicParams, ContrastiveParams, DikinOrthant,
                         Euclidean, RosenbrockParams, SolverConfig,
                         ValidationError, academic_problem,
                         contrastive_problem, fd_riemannian_grad, make_rng,
                         make_b_subproblem, make_cr_subproblem,
                         random_start, rosenbrock_problem, run_dca)
from hadamard_dc import dc
from hadamard_dc.geometry import (Hyperboloid, SPDManifold, chol, logdet,
                                  spd, sym)
from hadamard_dc.rng import run_seed
from helpers import examples, on_arrays, primitive_counter, rel_err


# ----------------------------------------------------------------------
# hyperbolic Rosenbrock
# ----------------------------------------------------------------------

def test_rosenbrock_reference_points():
    prob = rosenbrock_problem(RosenbrockParams(tangency="internal", a=1.0,
                                               theta=1.0))
    s1 = math.sinh(1.0)
    c1 = math.cosh(1.0)
    np.testing.assert_allclose(prob.metadata["pbar"], [s1, 0.0, c1])
    # a = 1 makes the two internal reference points coincide
    np.testing.assert_allclose(prob.metadata["qbar"], [s1, 0.0, c1])
    assert prob.metadata["degenerate"]
    assert "sphere" in prob.metadata["minimizer_set"]

    ext = rosenbrock_problem(RosenbrockParams(tangency="external", a=1.0,
                                              b=2.0))
    np.testing.assert_allclose(ext.metadata["qbar"], [-s1, 0.0, c1])
    pstar = ext.metadata["minimizer"]
    np.testing.assert_allclose(pstar, [0.0, 0.0, 1.0], atol=1e-12)
    m = ext.manifold
    assert m.dist(pstar, ext.metadata["pbar"]) == pytest.approx(1.0)
    assert m.dist(pstar, ext.metadata["qbar"]) == pytest.approx(1.0)
    assert ext.metadata["f"](pstar) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_radii_condition_error():
    m_probe = rosenbrock_problem(RosenbrockParams(tangency="external"))
    far = m_probe.manifold.exp(m_probe.metadata["pbar"],
                               4.0 * m_probe.manifold.log(
                                   m_probe.metadata["pbar"],
                                   m_probe.metadata["qbar"]))
    with pytest.raises(ValidationError):
        rosenbrock_problem(RosenbrockParams(tangency="external", qbar=far))


def test_rosenbrock_param_validation():
    with pytest.raises(ValidationError):
        RosenbrockParams(a=-1.0)
    with pytest.raises(ValidationError):
        RosenbrockParams(theta=0.5)
    with pytest.raises(ValidationError):
        RosenbrockParams(tangency="osculating")
    # a = 100 and 1e200: the default qbar's radius overflows cosh, and
    # a^2 itself
    for bad in ({"a": math.nan}, {"b": math.inf}, {"theta": math.nan},
                {"theta": math.inf}, {"a": 100.0}, {"a": 1e200}):
        with pytest.raises(ValidationError):
            RosenbrockParams(**bad)


def test_rosenbrock_f_nonnegative_and_consistent():
    prob = rosenbrock_problem(RosenbrockParams(tangency="internal"))
    f = prob.metadata["f"]
    rng = make_rng(0)
    for _ in range(50):
        p = prob.manifold.random_point(rng)
        assert f(p) >= 0.0
        pt = prob.manifold.point(p)
        assert f(p) == pytest.approx(prob.g(pt) - prob.h(pt),
                                     rel=1e-10, abs=1e-9)


@pytest.mark.parametrize("tangency,b", [("internal", 100.0),
                                        ("external", 2.0)])
def test_rosenbrock_gradients_match_fd(tangency, b):
    prob = rosenbrock_problem(RosenbrockParams(tangency=tangency, b=b))
    m = prob.manifold
    rng = make_rng(1)
    for _ in range(5):
        p = m.random_point(rng)
        for fn, grad in ((prob.g, prob.g_rgrad), (prob.h, prob.h_subgrad)):
            want = fd_riemannian_grad(m, on_arrays(m, fn), p)
            assert rel_err(grad(m.point(p)), want) < 1e-5


def test_rosenbrock_theta_two_gradients():
    prob = rosenbrock_problem(RosenbrockParams(tangency="external", b=2.0,
                                               theta=2.0))
    m = prob.manifold
    rng = make_rng(2)
    p = m.random_point(rng)
    for fn, grad in ((prob.g, prob.g_rgrad), (prob.h, prob.h_subgrad)):
        assert rel_err(grad(m.point(p)),
                       fd_riemannian_grad(m, on_arrays(m, fn), p)) < 1e-5


def test_rosenbrock_minimizer_certificate():
    prob = rosenbrock_problem(RosenbrockParams(tangency="internal", b=100.0))
    m = prob.manifold
    f = prob.metadata["f"]
    tr = run_dca(prob, random_start(prob, make_rng(3)),
                 SolverConfig(algorithm="b_dca"))
    p = tr.final.point
    assert f(p) <= 1e-6
    assert abs(m.dist(p, prob.metadata["pbar"]) - 1.0) <= 1e-3
    assert abs(m.dist(p, prob.metadata["qbar"]) - 1.0) <= 1e-3


# ----------------------------------------------------------------------
# SPD academic
# ----------------------------------------------------------------------

def test_academic_fixed_start_and_values():
    prob = academic_problem(AcademicParams(n=4))
    x0 = prob.metadata["fixed_start"]
    want = math.log(4.0) * np.eye(4)
    want[0, -1] += 1.0
    want[-1, 0] += 1.0
    np.testing.assert_array_equal(x0, want)
    rng = make_rng(4)
    np.testing.assert_array_equal(random_start(prob, rng), x0)

    n = 4
    xstar = math.exp(1.0 / (math.sqrt(2.0) * n)) * np.eye(n)
    assert prob.phi(xstar) == pytest.approx(-0.25, abs=1e-12)
    assert prob.phi(np.eye(n)) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(prob.h_subgrad(prob.manifold.point(np.eye(n))),
                               np.zeros((n, n)), atol=1e-12)


def test_academic_gradients_and_invariance():
    prob = academic_problem(AcademicParams(n=4))
    m = prob.manifold
    x0 = prob.metadata["fixed_start"]
    assert rel_err(prob.h_subgrad(m.point(x0)),
                   fd_riemannian_grad(m, on_arrays(m, prob.h), x0)) < 1e-5
    assert rel_err(prob.g_rgrad(m.point(x0)),
                   fd_riemannian_grad(m, on_arrays(m, prob.g), x0)) < 1e-5
    rng = make_rng(5)
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        x = m.random_point(rng)
        assert prob.phi(sym(q @ x @ q.T)) == pytest.approx(
            prob.phi(x), rel=1e-10, abs=1e-10)
    with pytest.raises(ValidationError):
        AcademicParams(n=1)


def test_academic_cr_subproblem_closed_form():
    prob = academic_problem(AcademicParams(n=4))
    m = prob.manifold
    rng = make_rng(6)
    x_k = m.random_point(rng)
    s_k = prob.h_subgrad(m.point(x_k))
    obj = make_cr_subproblem(prob, x_k, s_k)
    ld_k = logdet(x_k)
    for _ in range(5):
        x = m.random_point(rng)
        want_val = logdet(x) ** 4 - 2.0 * ld_k * (logdet(x) - ld_k)
        assert obj.value(x) == pytest.approx(want_val, rel=1e-10)
        want_grad = (4.0 * logdet(x) ** 3 - 2.0 * ld_k) * x
        assert rel_err(obj.grad(x), want_grad) < 1e-12
        assert rel_err(obj.grad(x),
                       fd_riemannian_grad(m, obj.value, x)) < 1e-5


# ----------------------------------------------------------------------
# SPD contrastive
# ----------------------------------------------------------------------

def test_contrastive_validation():
    with pytest.raises(ValidationError):
        ContrastiveParams(m=0)
    with pytest.raises(ValidationError):
        ContrastiveParams(r=-1)
    with pytest.raises(ValidationError):
        contrastive_problem(ContrastiveParams(n=3, m=2, r=0,
                                              pos_weights=(1.0, -1.0)),
                            make_rng(0))
    for weight in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            contrastive_problem(ContrastiveParams(n=3, m=2, r=1,
                                                  neg_weights=(weight,)),
                                make_rng(0))
    # references given, fewer than the declared m or r
    for refs in ({"positives": [np.eye(3)], "negatives": [np.eye(3)]},
                 {"positives": [np.eye(3)] * 2, "negatives": []}):
        with pytest.raises(ValidationError, match="reference counts"):
            contrastive_problem(ContrastiveParams(n=3, m=2, r=1),
                                make_rng(0), **refs)


def test_contrastive_single_positive_minimizer():
    rng = make_rng(7)
    prob = contrastive_problem(ContrastiveParams(n=3, m=1, r=0), rng)
    xbar = prob.metadata["positives"][0]
    np.testing.assert_array_equal(prob.metadata["minimizer"], xbar)
    assert prob.phi(xbar) == pytest.approx(0.0, abs=1e-12)
    m = prob.manifold
    assert m.norm(xbar, prob.g_rgrad(m.point(xbar))) <= 1e-9
    tr = run_dca(prob, random_start(prob, rng),
                 SolverConfig(algorithm="b_dca"))
    assert prob.manifold.dist(tr.final.point, xbar) <= 1e-3


def test_contrastive_commuting_midpoint():
    m_dim = 3
    rng = make_rng(8)
    a = np.exp(rng.uniform(-1.0, 1.0, m_dim))
    b = np.exp(rng.uniform(-1.0, 1.0, m_dim))
    prob = contrastive_problem(
        ContrastiveParams(n=m_dim, m=2, r=0), rng,
        positives=[np.diag(a), np.diag(b)], negatives=[])
    xstar = np.diag(np.sqrt(a * b))
    m = prob.manifold
    assert m.norm(xstar, prob.g_rgrad(m.point(xstar))) <= 1e-10
    tr = run_dca(prob, random_start(prob, rng),
                 SolverConfig(algorithm="cr_dca"))
    assert prob.manifold.dist(tr.final.point, xstar) <= 1e-3


def test_contrastive_gradients_match_fd():
    rng = make_rng(9)
    prob = contrastive_problem(ContrastiveParams(n=3, m=2, r=2), rng)
    m = prob.manifold
    for _ in range(5):
        x = m.random_point(rng)
        assert rel_err(prob.g_rgrad(m.point(x)),
                       fd_riemannian_grad(m, on_arrays(m, prob.g), x)) < 1e-5
        assert rel_err(prob.h_subgrad(m.point(x)),
                       fd_riemannian_grad(m, on_arrays(m, prob.h), x)) < 1e-5


def reference_sq_dist_sum(x, weights, refs):
    """sum_i w_i d^2(X, R_i) and -2 sum_i w_i log_X(R_i), one reference at
    a time with every factor rebuilt, from the Cholesky factor L of R and
    the spectrum mu, V of M = L^-1 X L^-T: d^2 = sum_j (ln mu_j)^2 and
    log_X(R) = -L V diag(mu ln mu) V^T L^T.  The terms are added in
    reference order, and the weighted sum of the d^2 is taken by the dot
    product that the implementation uses."""
    sq = []
    out = np.zeros_like(x)
    for w, r in zip(weights, refs):
        lower = chol(r)
        c = np.linalg.inv(lower)
        mu, v = np.linalg.eigh(sym(c @ x @ c.T))
        log_mu = np.log(mu)
        sq.append(np.sum(log_mu * log_mu))
        a = lower @ v
        out = out + (a * (w * (mu * log_mu))) @ a.T
    value = float(np.asarray(weights, dtype=float) @ np.array(sq))
    return value, sym(2.0 * out)


@pytest.mark.parametrize("m_refs, r_refs, pos_weights, neg_weights", [
    (3, 2, None, None), (3, 2, (0.5, 1.25, 2.0), (0.75, 1.5)),
    (2, 0, None, None)], ids=["3-2", "3-2-weighted", "2-0"])
def test_contrastive_closures_match_per_reference_sums(m_refs, r_refs,
                                                       pos_weights,
                                                       neg_weights):
    rng = make_rng(13)
    prob = contrastive_problem(
        ContrastiveParams(n=4, m=m_refs, r=r_refs, pos_weights=pos_weights,
                          neg_weights=neg_weights), rng)
    md = prob.metadata
    for _ in range(5):
        x = prob.manifold.random_point(rng)
        pt = prob.manifold.point(x)
        for value, grad, weights, refs in (
                (prob.g, prob.g_rgrad, md["pos_weights"], md["positives"]),
                (prob.h, prob.h_subgrad, md["neg_weights"],
                 md["negatives"])):
            want_value, want_grad = reference_sq_dist_sum(x, weights, refs)
            assert value(pt) == want_value
            assert np.array_equal(grad(pt), want_grad)
        if r_refs == 0:             # an empty stack
            assert prob.h(pt) == 0.0
            assert np.array_equal(prob.h_subgrad(pt), np.zeros((4, 4)))


def test_contrastive_b_dca_prepares_each_step_once(monkeypatch):
    """One spectral split per outer step with s_k != 0, and eigh calls
    (a stacked call counting as one): one per trial step (the stacked
    spectrum of g's references, which serves g there and, at an accepted
    point, grad g), one per inner iteration (the ray of the line search
    that made it; a ray diagonalizes its direction on its first step, so
    the last ray of an inner solve, whose speed ends the solve, makes
    none), two per outer step (the split and the stacked spectrum of h's
    references, which serves h and s_k) and two at p0 (the two spectra).
    Every trial point is Cholesky-factored once, by the test of the step
    that made it, and its kernels (the rays, the split, the step distance)
    take that factor and its inverse, one inv per iterate and p0, so no
    point needs X^+-1/2.
    When each point took X^+-1/2 from an eigh and each ray diagonalized
    when it was built, this read one per trial, two per inner iteration,
    three per outer step and three at p0; when each trial step took its
    own exponential map, two per trial, one per inner iteration, two per
    outer step and three at p0; when the value of each sum took an
    eigvalsh and its gradient a stacked eigh of X^-1/2 R_i X^-1/2, one
    per trial, two per inner iteration, two per outer step and three at
    p0."""
    params = ContrastiveParams(n=4, m=3, r=2)
    rng = make_rng(5)
    prob = contrastive_problem(params, rng)
    start = random_start(prob, rng)
    counts = {"ray": 0, "split": 0}
    make_b, split = dc.make_b_subproblem, SPDManifold._spectral_split

    def counted_make_b(problem, p_k, s_k):
        counts["ray"] += bool(np.any(s_k != 0.0))
        return make_b(problem, p_k, s_k)

    def counted_split(*args, **kwargs):
        counts["split"] += 1
        return split(*args, **kwargs)

    monkeypatch.setattr(dc, "make_b_subproblem", counted_make_b)
    monkeypatch.setattr(SPDManifold, "_spectral_split", counted_split)
    with primitive_counter() as counter:
        trace = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
    assert trace.exit_reason == "grad"
    assert counts["ray"] == trace.k > 0
    assert counts["split"] == counts["ray"]
    assert counter.counts["eigh"] == (counter.counts["step"]
                                      + trace.inner_total + 2 * trace.k + 2)
    assert counter.counts["_definite"] == counter.counts["step"] + 1
    assert counter.counts["inv"] == counter.counts["factor"] \
        == trace.inner_total + 1


def test_valley_b_dca_prepares_each_step_once(monkeypatch):
    """One horocenter per outer step with s_k != 0, and one subgradient of
    h per trace record: scale_factor shares p0's with the gradient test."""
    prob = rosenbrock_problem(RosenbrockParams(tangency="internal", a=1.0,
                                               b=100.0, theta=1.0, n=2))
    start = random_start(prob, make_rng(20))
    counts = {"ray": 0, "center": 0, "subgrad": 0}
    make_b, center, subgrad = (dc.make_b_subproblem,
                               Hyperboloid._horo_center, prob.h_subgrad)

    def counted_make_b(problem, p_k, s_k):
        counts["ray"] += bool(np.any(s_k != 0.0))
        return make_b(problem, p_k, s_k)

    def counted_center(*args, **kwargs):
        counts["center"] += 1
        return center(*args, **kwargs)

    def counted_subgrad(p):
        counts["subgrad"] += 1
        return subgrad(p)

    monkeypatch.setattr(dc, "make_b_subproblem", counted_make_b)
    monkeypatch.setattr(Hyperboloid, "_horo_center", counted_center)
    prob.h_subgrad = counted_subgrad
    trace = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
    assert trace.exit_reason == "grad"
    assert counts["center"] == counts["ray"] > 0
    assert counts["ray"] <= trace.k
    assert counts["subgrad"] == len(trace.records)


def test_contrastive_construction_primitive_counts():
    """The references of an instance are sampled by random_point_near
    around one checked center, so the center is checked and factored once
    (20 check_point, 20 Cholesky, 17 eigh and 5 spd_roots when each sample
    checked and factored it again).  Each of the six points (the center
    and five references) is Cholesky-tested by its check and
    Cholesky-factored once more for its factor, which the sampler and
    the norm (the center) or a distance sum (the references) takes; each
    stack of references, for g and for h, is inverted by one stacked
    inv.  The center's factor is one inv, and each sample's exponential
    map one eigh; random_tangent draws with the center's L and the norm
    takes L^-1, so neither makes an eigh or a solve (eigh 6 and solve 5
    when random_tangent drew with X^1/2, one eigh, and each sample's
    norm solved with X).  Each sample takes one |w|_c (norm 5).  Before
    the point factor (eigh 8, cholesky 6, no inv): the center's X^+-1/2
    and the R^+-1/2 of each stack were one spd_roots each.  Construction
    takes no subproblem gradient."""
    with primitive_counter() as counter:
        contrastive_problem(ContrastiveParams(n=4, m=3, r=2), make_rng(5))
    assert counter.counts == {"eigh": 5, "eigvalsh": 0, "cholesky": 12,
                              "solve": 0, "inv": 3, "check_point": 6,
                              "step": 0, "_definite": 6, "factor": 1,
                              "hyperboloid._dist": 0,
                              "hyperboloid._log": 0, "norm": 5,
                              "subproblem_grad": 0}


def test_contrastive_convexity_of_components():
    rng = make_rng(10)
    prob = contrastive_problem(ContrastiveParams(n=3, m=3, r=2), rng)
    m = prob.manifold
    for fn in (on_arrays(m, prob.g), on_arrays(m, prob.h)):
        for _ in range(20):
            p1 = m.random_point(rng)
            p2 = m.random_point(rng)
            mid = m.geodesic(p1, p2, 0.5)
            assert fn(mid) <= 0.5 * fn(p1) + 0.5 * fn(p2) + 1e-10


def test_contrastive_determinism_and_validity():
    p1 = contrastive_problem(ContrastiveParams(n=4, m=3, r=2), make_rng(11))
    p2 = contrastive_problem(ContrastiveParams(n=4, m=3, r=2), make_rng(11))
    for a, b in zip(p1.metadata["positives"], p2.metadata["positives"]):
        np.testing.assert_array_equal(a, b)
    m = p1.manifold
    rng = make_rng(12)
    for _ in range(1000):
        m.check_point(random_start(p1, rng))


def test_hyperbolic_random_start_determinism():
    prob = rosenbrock_problem(RosenbrockParams())
    a = random_start(prob, make_rng(7))
    b = random_start(prob, make_rng(7))
    np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# subproblem gradient sweep over all families
# ----------------------------------------------------------------------

@pytest.mark.parametrize("factory", [
    lambda rng: rosenbrock_problem(RosenbrockParams(tangency="external",
                                                    b=2.0)),
    lambda rng: academic_problem(AcademicParams(n=3)),
    lambda rng: contrastive_problem(ContrastiveParams(n=3, m=2, r=1), rng),
])
def test_subproblem_gradients_match_fd(factory):
    rng = make_rng(13)
    prob = factory(rng)
    m = prob.manifold
    for _ in range(5):
        p_k = m.random_point(rng)
        s_k = prob.h_subgrad(m.point(p_k))
        p = m.random_point(rng)
        for make in (make_cr_subproblem, make_b_subproblem):
            obj = make(prob, p_k, s_k)
            assert obj.problem.g_rgrad is not None
            assert rel_err(obj.grad(p),
                           fd_riemannian_grad(m, obj.value, p)) < 1e-5


def test_rosenbrock_subgradient_selection_at_reference(caplog):
    import logging
    prob = rosenbrock_problem(RosenbrockParams(tangency="external", b=2.0))
    pbar = prob.metadata["pbar"]
    with caplog.at_level(logging.WARNING, logger="hadamard_dc.problems"):
        s = prob.h_subgrad(prob.manifold.point(pbar))
    assert np.all(np.isfinite(s))
    assert any("zero subgradient" in r.message for r in caplog.records)


def former_rosenbrock_closures(prob, a, b, theta):
    """g, h, g_rgrad and h_subgrad of a Rosenbrock instance as they were
    before coinciding references shared one distance and one log: every
    point takes d_p and d_q, and log_p(pbar) and log_p(qbar), apart."""
    m = prob.manifold
    pbar, qbar = prob.metadata["pbar"], prob.metadata["qbar"]
    pbar_pt, qbar_pt = m.point(pbar), m.point(qbar)

    def dists(p):
        return m._dist(p, pbar_pt), m._dist(p, qbar_pt)

    def sq_dist_grads(p):
        return -2.0 * m._log(p, pbar_pt), -2.0 * m._log(p, qbar_pt)

    def pow_grad(d, gsq, alpha):
        if d == 0.0:
            return 0.0 * gsq
        if alpha == 2.0:
            return gsq
        return (0.5 * alpha) * d ** (alpha - 2.0) * gsq

    def g(p):
        dp, dq = dists(p)
        return (a * a + dp ** (2 * theta) + 2 * b * dq ** (2 * theta)
                + 2 * b * dp ** (4 * theta))

    def h(p):
        dp, dq = dists(p)
        return (2 * a * dp ** theta
                + b * (dp ** (2 * theta) + dq ** theta) ** 2)

    def g_rgrad(p):
        dp, dq = dists(p)
        gsq_p, gsq_q = sq_dist_grads(p)
        return (pow_grad(dp, gsq_p, 2 * theta)
                + 2 * b * pow_grad(dq, gsq_q, 2 * theta)
                + 2 * b * pow_grad(dp, gsq_p, 4 * theta))

    def h_subgrad(p):
        dp, dq = dists(p)
        gsq_p, gsq_q = sq_dist_grads(p)
        u = dp ** (2 * theta) + dq ** theta
        return (2 * a * pow_grad(dp, gsq_p, theta)
                + 2 * b * u * (pow_grad(dp, gsq_p, 2 * theta)
                               + pow_grad(dq, gsq_q, theta)))

    return g, h, g_rgrad, h_subgrad


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       theta=st.floats(1.0, 3.0), b=st.floats(0.5, 200.0),
       radius=st.floats(0.0, 20.0), explicit=st.booleans())
@example(seed=0, n=2, theta=1.0, b=100.0, radius=3.0, explicit=False)
@example(seed=1, n=2, theta=2.0, b=2.0, radius=20.0, explicit=True)
def test_rosenbrock_coinciding_references_match_two_reference_forms(
        seed, n, theta, b, radius, explicit):
    """With pbar = qbar (a = 1 and internal tangency, or the same point
    given twice) one distance and one log serve both references; g, h,
    g_rgrad and h_subgrad keep the bytes of the two-reference forms, at
    pbar too, where the distance is 0."""
    rng = np.random.default_rng(seed)
    m = Hyperboloid(n)
    ref = m.random_point_near(m.apex(), 3.0, rng)
    params = RosenbrockParams(a=1.0, b=b, theta=theta, n=n,
                              pbar=ref if explicit else None,
                              qbar=ref.copy() if explicit else None)
    prob = rosenbrock_problem(params)
    former = former_rosenbrock_closures(prob, 1.0, b, theta)
    current = (prob.g, prob.h, prob.g_rgrad, prob.h_subgrad)
    xs = [prob.metadata["pbar"]] + [
        m.random_point_near(m.apex(), radius, rng) for _ in range(3)]
    for x in xs:
        p, p_former = m.point(x), m.point(x)
        for fn, fn_former in zip(current, former):
            assert np.asarray(fn(p)).tobytes() \
                == np.asarray(fn_former(p_former)).tobytes()


def _cli_contrastive_start():
    """The instance and start of run 0 of ``hadamard-dc spd-contrastive
    --n 5 --m 5 --r 4 --seed 0``."""
    rng = make_rng(run_seed(0, 0))
    prob = contrastive_problem(ContrastiveParams(n=5, m=5, r=4), rng)
    return prob, random_start(prob, rng)


@pytest.mark.parametrize(
    "alg, k, inn, eigh, eigvalsh, cholesky, solve, steps", [
        ("cr_dca", 42, 42, 464, 42, 170, 0, 168),
        ("b_dca", 79, 86, 413, 79, 415, 0, 167),
    ], ids=["cr_dca", "b_dca"])
def test_contrastive_primitive_counts(alg, k, inn, eigh, eigvalsh, cholesky,
                                      solve, steps):
    """Exact LAPACK counts of one spd-contrastive run (2,006 eigh and 572
    Cholesky for cr_dca, 2,529 and 2,455 for b_dca when every consumer of
    a point factored it again; one eigh more per outer step when the step
    distance factored the new iterate again; 1,180 and 1,416 solves when
    the SPD norm solved Y^-1 V twice; 1,335 eigh and 512 eigvalsh for
    cr_dca, 1,818 and 969 for b_dca when each distance sum took an
    eigvalsh for its value and a second stacked eigh for its gradient;
    1,512 eigh and 845 solves for cr_dca, 2,173 and 708 for b_dca when
    each trial step took its own exponential map, each line search the
    gradient norm by a solve, each classic value a solve and each
    classic model one more; 1,394 and 1,912 eigh when each point took
    X^+-1/2 from an eigh and each ray diagonalized when built; 1,393
    eigh, 1,654 Cholesky and 779 trial steps for b_dca when the first
    line search of each inner solve started at grid index 0: it starts
    at the index the previous one accepted, since the horofunction
    subproblem is convex, and cr_dca's stays cold; 61 and 190 solves
    when the SPD norm solved with X, on the instance that random_tangent
    drew with X^1/2, where k was 59 and 94 and inn 215 and 424: the
    draws with L are those moved by an isometry that fixes the center,
    so only the random start sees another landscape; inn 222 and 409,
    1,156 and 1,110 eigh, 407 and 1,112 Cholesky and 405 and 507 trial
    steps when every inner solve ran to the fixed tolerance 1e-5: it
    stops once the subproblem gradient is at most a tenth of |grad
    phi(p_k)|, which the support inequality makes enough for descent,
    with k unchanged; k 61 and 96, inn 122 and 210, 856 and 712 eigh,
    307 and 714 Cholesky and 305 and 308 trial steps at that tenth: it
    stops at seven tenths, where the one long first step it keeps also
    saves outer steps, and the certificate of the stop never refuses
    here), one eigvalsh per outer step (the step distance, which the
    certificate shares),
    one check_point, for p0, and one Cholesky test (_definite) per trial
    step and for p0: an iterate is validated once, as the trial that
    reached it.  Each trial point is Cholesky-factored once, by that
    test, and p0 once more for its factor: the only other Cholesky calls
    are the horofunction's, one per trial and per outer iterate (b_dca).
    No trial inverts L: one inv per accepted point and p0, when its
    factor is first used."""
    prob, start = _cli_contrastive_start()
    with primitive_counter() as counter:
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
    assert (trace.k, trace.inner_total) == (k, inn)
    assert counter.counts["eigh"] == eigh
    assert counter.counts["eigvalsh"] == eigvalsh == k
    assert counter.counts["cholesky"] == cholesky
    assert counter.counts["solve"] == solve
    assert counter.counts["check_point"] == 1
    assert counter.counts["step"] == steps
    assert counter.counts["_definite"] == steps + 1
    horofunction = steps + k if alg == "b_dca" else 0
    assert counter.counts["cholesky"] \
        == counter.counts["_definite"] + 1 + horofunction
    assert counter.counts["inv"] == counter.counts["factor"] == inn + 1


# numpy functions whose Python-level wrappers cost about a microsecond of
# dispatch before they reach the ndarray method or dot that does the work
_NUMPY_WRAPPERS = ((np, "sum"), (np, "any"), (np, "max"), (np, "diag"),
                   (np, "diff"), (np.linalg, "norm"))


@pytest.mark.parametrize("alg, eigh, eigvalsh, cholesky, inv", [
    ("cr_dca", 464, 42, 170, 43),
    ("b_dca", 413, 79, 415, 87),
], ids=["cr_dca", "b_dca"])
def test_contrastive_solve_calls_no_numpy_wrapper(monkeypatch, alg, eigh,
                                                  eigvalsh, cholesky, inv):
    """The SPD kernels of a solve call the ndarray methods and dots that
    np.sum, np.any, np.max, np.diag, np.diff and np.linalg.norm reach,
    not the wrappers: no call comes from inside ``inner_solve``, nor
    from anywhere else in the solve, so their count does not grow with
    the outer steps (kernels that called the wrappers made 1,184 calls
    on this cr_dca run and 2,040 on the b_dca one, 1,092 and 1,479 of
    them inside ``inner_solve``).  The decompositions are untouched:
    the eigh, eigvalsh, cholesky and inv counts are the ones those
    kernels made."""
    prob, start = _cli_contrastive_start()
    inner = dc.inner_solve.__code__
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not inner:
                frame = frame.f_back
            where = (name, "inner_solve" if frame else "elsewhere")
            calls[where] = calls.get(where, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch, primitive_counter() as counter:
        for owner, name in _NUMPY_WRAPPERS:
            patch.setattr(owner, name, counted(name, getattr(owner, name)))
        np.sum(np.ones(2))              # the counters see a call
        assert calls.pop(("sum", "elsewhere")) == 1
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
    assert trace.k > 0
    assert calls == {}
    assert [counter.counts[op] for op in
            ("eigh", "eigvalsh", "cholesky", "inv")] \
        == [eigh, eigvalsh, cholesky, inv]


def test_spd_factor_once_per_distinct_point(monkeypatch):
    """The factor (L, L^-1) of each iterate is made once, shared by the
    subproblem, the step distance and the search ray (the gradients of g
    and h need none): one per accepted point and p0, none on the same
    matrix twice, and each iterate takes the L that the test of the trial
    step which reached it computed, so no trial point is Cholesky-factored
    twice.  Only p0, which ``Manifold.point`` made after check_point,
    factors itself on first use."""
    factored = []
    refactored = []
    point_factor, point_lower = spd._point_factor, spd._point_lower

    def counted_factor(x):
        factored.append(x.x.tobytes())
        return point_factor(x)

    def counted_lower(x):
        refactored.append(x.x.tobytes())
        return point_lower(x)

    instances = {alg: _cli_contrastive_start()
                 for alg in ("cr_dca", "b_dca")}
    monkeypatch.setattr(spd, "_point_factor", counted_factor)
    monkeypatch.setattr(spd, "_point_lower", counted_lower)
    for alg, (prob, start) in instances.items():
        factored.clear()
        refactored.clear()
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
        assert len(factored) == trace.inner_total + 1
        assert len(set(factored)) == len(factored)
        assert refactored == [np.asarray(start, dtype=float).tobytes()]


def test_valley_b_dca_primitive_counts():
    """Exact hyperboloid kernel counts over the valley starts of seeds
    0-19: the valley's two references coincide, so one distance and one
    log are computed per point (130,025 _dist and 24,744 _log when each
    closure computed both again, 98,203 and 17,586 when each point
    computed both once), and each line-search trial is one ray step,
    which validates its point without check_point (one check_point per
    trial and per p0 before).  The first line search of an inner solve
    starts at the grid index the previous one accepted (47,322 steps and
    50,861 _dist when it started at index 0, with the same 3,519 outer
    steps).  Each inner solve stops once the subproblem gradient is at
    most seven tenths of |grad phi(p_k)| (3,519 outer steps, 22,699
    steps, 26,238 _dist and 8,793 _log when every solve ran to the fixed
    tolerance 1e-5; 3,512, 20,050, 23,582 and 6,886 at a tenth): keeping
    the long first step of a solve also saves outer steps.  The valley's
    sigma is 0, so no stop asks for the certificate and it computes no
    distance.  The support scale |s_k| of an outer step is the |s_k| its
    horofunction computed (25,471 norms when ``_support_term`` computed
    it again, one more per outer step).  Each iterate takes grad phi
    once, as the ray whose speed the outer test reads and along which
    the inner solve's first search runs, so a subproblem's gradient is
    taken once per inner iteration (2,599 outer steps, 14,970 _dist,
    2,704 _log, 12,351 steps, 22,872 norms and 5,283 subproblem
    gradients when the first search took its ray from the subproblem's
    own gradient at p_k and the outer test normed grad phi again).  A
    run that ends at a fixed point keeps the ray of that point, which it
    did not leave (20,226 norms when it took the ray again)."""
    totals = {"hyperboloid._dist": 0, "hyperboloid._log": 0, "step": 0,
              "check_point": 0, "norm": 0, "subproblem_grad": 0}
    outer = 0
    for seed in range(20):
        prob = rosenbrock_problem(RosenbrockParams())
        start = random_start(prob, make_rng(run_seed(seed, 0)))
        with primitive_counter() as counter:
            trace = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
        outer += trace.k
        for name in totals:
            totals[name] += counter.counts[name]
    assert outer == 2594
    assert totals == {"hyperboloid._dist": 14952, "hyperboloid._log": 2700,
                      "step": 12338, "check_point": 20, "norm": 20223,
                      "subproblem_grad": 2680}


@pytest.mark.parametrize("build, error", [
    (lambda: Hyperboloid(2, curvature=math.nan), ValidationError),
    (lambda: Hyperboloid(2, curvature=math.inf), ValidationError),
    (lambda: Hyperboloid(2.5), ValidationError),
    (lambda: SPDManifold(2.5), ValidationError),
    (lambda: Euclidean(2.5), ValidationError),
    (lambda: DikinOrthant(2.5), ValidationError),
    (lambda: RosenbrockParams(n=2.5), ValidationError),
    (lambda: AcademicParams(n=3.5), ValidationError),
    (lambda: ContrastiveParams(m=2.5), ValidationError),
    (lambda: ContrastiveParams(r=0.5), ValidationError),
    (lambda: SolverConfig(max_outer=2.5), ValueError),
], ids=["curvature-nan", "curvature-inf", "hyperboloid-n", "spd-n",
        "euclidean-n", "dikin-n", "rosenbrock-n", "academic-n",
        "contrastive-m", "contrastive-r", "max_outer"])
def test_constructors_reject_invalid_numbers(build, error):
    """A non-finite curvature or a non-integer count is rejected when the
    object is built, not truncated or left to fail later."""
    with pytest.raises(error):
        build()
