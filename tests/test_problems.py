"""Benchmark problem families: construction, gradients, optima metadata."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from hadamard_dc import (AcademicParams, ContrastiveParams, RosenbrockParams,
                         SolverConfig, ValidationError, academic_problem,
                         contrastive_problem, fd_riemannian_grad, make_rng,
                         make_b_subproblem, make_cr_subproblem,
                         random_start, rosenbrock_problem, run_dca)
from hadamard_dc import dc
from hadamard_dc.geometry import (Hyperboloid, SPDManifold, logdet, spd,
                                  spd_fun, sym)
from hadamard_dc.rng import run_seed
from helpers import on_arrays, rel_err

ROOT = Path(__file__).resolve().parent.parent


def _count_primitives():
    """``tools/count_primitives.py``, whose counter the counting tests
    share."""
    spec = importlib.util.spec_from_file_location(
        "count_primitives", ROOT / "tools" / "count_primitives.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _count_trials(manifold, monkeypatch):
    """Counts, in the returned dict, the trial steps of every line search
    on ``manifold``: the calls of its prepared exponential maps."""
    counts = {"trials": 0}
    exponential = manifold._exponential

    def counted_exponential(p):
        exp_p = exponential(p)

        def trial(v):
            counts["trials"] += 1
            return exp_p(v)
        return trial

    monkeypatch.setattr(manifold, "_exponential", counted_exponential)
    return counts


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
    a time with every matrix root rebuilt."""
    value = 0
    out = np.zeros_like(x)
    xh, xih = spd_fun(x, "sqrt"), spd_fun(x, "invsqrt")
    for w, r in zip(weights, refs):
        rih = spd_fun(r, "invsqrt")
        d = float(np.linalg.norm(np.log(np.linalg.eigvalsh(
            sym(rih @ x @ rih)))))
        value = value + w * d ** 2
        log = sym(xh @ spd_fun(sym(xih @ r @ xih), "log") @ xh)
        out = out - 2.0 * w * log
    return float(value), sym(out)


@pytest.mark.parametrize("m_refs, r_refs", [(3, 2), (2, 0)])
def test_contrastive_closures_match_per_reference_sums(m_refs, r_refs):
    rng = make_rng(13)
    prob = contrastive_problem(ContrastiveParams(n=4, m=m_refs, r=r_refs),
                               rng)
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
    (a stacked call counting as one): one per trial step (its exponential),
    two per inner iteration (the roots of the accepted point and the
    stacked logs of grad g there), three per outer step (the split, the
    stacked logs of s_k and X^-1/2 of the step distance) and three at p0
    (its roots and the stacked logs of grad g and s_k)."""
    params = ContrastiveParams(n=4, m=3, r=2)
    rng = make_rng(5)
    prob = contrastive_problem(params, rng)
    start = random_start(prob, rng)
    counts = {"ray": 0, "split": 0, "eigh": 0}
    make_b, split, eigh = (dc.make_b_subproblem,
                           SPDManifold._spectral_split, np.linalg.eigh)

    def counted_make_b(problem, p_k, s_k):
        counts["ray"] += bool(np.any(s_k != 0.0))
        return make_b(problem, p_k, s_k)

    def counted_split(*args, **kwargs):
        counts["split"] += 1
        return split(*args, **kwargs)

    def counted_eigh(*args, **kwargs):
        counts["eigh"] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(dc, "make_b_subproblem", counted_make_b)
    monkeypatch.setattr(SPDManifold, "_spectral_split", counted_split)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    trials = _count_trials(prob.manifold, monkeypatch)
    trace = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
    assert trace.exit_reason in ("grad", "step")
    assert counts["ray"] == trace.k > 0
    assert counts["split"] == counts["ray"]
    assert counts["eigh"] == (trials["trials"] + 2 * trace.inner_total
                              + 3 * trace.k + 3)


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
    assert trace.exit_reason in ("grad", "step")
    assert counts["center"] == counts["ray"] > 0
    assert counts["ray"] <= trace.k
    assert counts["subgrad"] == len(trace.records)


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
            assert obj.analytic
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


def _cli_contrastive_start():
    """The instance and start of run 0 of ``hadamard-dc spd-contrastive
    --n 5 --m 5 --r 4 --seed 0``."""
    rng = make_rng(run_seed(0, 0))
    prob = contrastive_problem(ContrastiveParams(n=5, m=5, r=4), rng)
    return prob, random_start(prob, rng)


@pytest.mark.parametrize("alg, k, inn, eigh, cholesky", [
    ("cr_dca", 59, 215, 1394, 393),
    ("b_dca", 94, 424, 1912, 1653),
])
def test_contrastive_primitive_counts(alg, k, inn, eigh, cholesky,
                                      monkeypatch):
    """Exact LAPACK counts of one spd-contrastive run (2,006 eigh and 572
    Cholesky for cr_dca, 2,529 and 2,455 for b_dca when every consumer of
    a point factored it again), and one check_point per trial step plus
    one for p0: an iterate is validated once, as the trial that reached
    it."""
    prob, start = _cli_contrastive_start()
    trials = _count_trials(prob.manifold, monkeypatch)
    with _count_primitives().PrimitiveCounter() as counter:
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
    assert (trace.k, trace.inner_total) == (k, inn)
    assert counter.counts["eigh"] == eigh
    assert counter.counts["cholesky"] == cholesky
    assert counter.counts["check_point"] == trials["trials"] + 1


def test_spd_roots_once_per_distinct_point(monkeypatch):
    """X^+-1/2 of each iterate comes from one spd_roots call, shared by the
    gradients of g and h, the subproblem and the exponential map: one call
    per accepted point and p0, none on the same matrix twice."""
    factored = []
    spd_roots = spd.spd_roots

    def counted_roots(a):
        factored.append(a.tobytes())
        return spd_roots(a)

    instances = {alg: _cli_contrastive_start()
                 for alg in ("cr_dca", "b_dca")}
    monkeypatch.setattr(spd, "spd_roots", counted_roots)
    for alg, (prob, start) in instances.items():
        factored.clear()
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
        assert len(factored) == trace.inner_total + 1
        assert len(set(factored)) == len(factored)


def test_valley_b_dca_primitive_counts():
    """Exact hyperboloid kernel counts over the valley starts of seeds
    0-19: Rosenbrock's two distances and two logs are computed once per
    point (130,025 _dist and 24,744 _log when each closure computed them
    again)."""
    totals = {"hyperboloid._dist": 0, "hyperboloid._log": 0}
    outer = 0
    for seed in range(20):
        prob = rosenbrock_problem(RosenbrockParams())
        start = random_start(prob, make_rng(run_seed(seed, 0)))
        with _count_primitives().PrimitiveCounter() as counter:
            trace = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
        outer += trace.k
        for name in totals:
            totals[name] += counter.counts[name]
    assert outer == 3519
    assert totals == {"hyperboloid._dist": 98203, "hyperboloid._log": 17586}
