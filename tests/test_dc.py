"""DC problem abstraction, subproblems, inner solver, and the outer loops."""

import dataclasses
import math

import numpy as np
import pytest

from hadamard_dc import (DCProblem, DikinOrthant, Euclidean, Hyperboloid,
                         NumericalDomainError, SolverConfig,
                         StalledInnerSolveError,
                         ValidationError, ZeroDirectionError, complexity_bound_check,
                         inner_solve, make_b_subproblem, make_cr_subproblem,
                         make_rng, run_dca, scale_factor)
from hadamard_dc.problems import (AcademicParams, RosenbrockParams,
                                  academic_problem, random_start,
                                  rosenbrock_problem)
from helpers import primitive_counter


def euclid_quadratic(n, c):
    """g = |p|^2, h = <c, p>; the classic one-step instance."""
    m = Euclidean(n)
    return DCProblem(
        manifold=m,
        g=lambda p: float(p.x @ p.x),
        h=lambda p: float(c @ p.x),
        h_subgrad=lambda p: c.copy(),
        g_rgrad=lambda p: 2.0 * p.x,
        sigma=0.0, phi_inf=None, name="euclid-quadratic")


def g_only(g_rgrad):
    """g = |p|^2 on R^2 with the gradient provider ``g_rgrad`` and h = 0:
    the subproblem g alone."""
    return DCProblem(manifold=Euclidean(2), g=lambda p: float(p.x @ p.x),
                     h=lambda p: 0.0, h_subgrad=lambda p: np.zeros(2),
                     g_rgrad=g_rgrad, name="g-only")


def euclid_strongly_convex(z1, z2):
    """g = d^2(., z1), h = d^2(., z2)/2 with analytic infimum."""
    m = Euclidean(z1.size)
    pstar = 2 * z1 - z2
    phi_inf = (float((pstar - z1) @ (pstar - z1))
               - 0.5 * float((pstar - z2) @ (pstar - z2)))
    return DCProblem(
        manifold=m,
        g=lambda p: float((p.x - z1) @ (p.x - z1)),
        h=lambda p: 0.5 * float((p.x - z2) @ (p.x - z2)),
        h_subgrad=lambda p: p.x - z2,
        g_rgrad=lambda p: 2.0 * (p.x - z1),
        sigma=2.0, phi_inf=phi_inf, name="euclid-sc")


def test_scale_factor_values():
    m = Euclidean(2)
    # |grad phi(p0)| = 0 at the stationary point of phi
    prob = euclid_quadratic(2, np.array([2.0, 0.0]))
    assert scale_factor(prob, np.array([1.0, 0.0])) == pytest.approx(1.0)
    # |grad phi| = |2 p0 - c| = 3
    assert scale_factor(prob, np.array([2.5, 0.0])) == pytest.approx(0.25)


def test_cr_subproblem_euclidean():
    c = np.array([1.0, -2.0])
    prob = euclid_quadratic(2, c)
    rng = make_rng(0)
    p_k = rng.standard_normal(2)
    s_k = c
    obj = make_cr_subproblem(prob, p_k, s_k)
    p = rng.standard_normal(2)
    assert obj.value(p) == pytest.approx(float(p @ p) - float(s_k @ (p - p_k)),
                                         rel=1e-12)
    np.testing.assert_allclose(obj.grad(p), 2 * p - s_k, rtol=1e-12)
    assert obj.value(p_k) == pytest.approx(prob.g(prob.manifold.point(p_k)),
                                           rel=1e-12)


def test_b_subproblem_matches_cr_on_flat():
    c = np.array([0.5, 2.0, -1.0])
    prob = euclid_quadratic(3, c)
    rng = make_rng(1)
    p_k = rng.standard_normal(3)
    cr = make_cr_subproblem(prob, p_k, c)
    bd = make_b_subproblem(prob, p_k, c)
    for _ in range(10):
        p = rng.standard_normal(3)
        assert abs(cr.value(p) - bd.value(p)) <= 1e-12 * (1 + abs(cr.value(p)))
        assert np.linalg.norm(cr.grad(p) - bd.grad(p)) <= 1e-12


def test_b_subproblem_zero_subgradient_reduces_to_g():
    c = np.zeros(2)
    prob = euclid_quadratic(2, c)
    p_k = np.array([1.0, 1.0])
    obj = make_b_subproblem(prob, p_k, np.zeros(2))
    p = np.array([0.3, -0.7])
    assert obj.value(p) == prob.g(prob.manifold.point(p))
    np.testing.assert_allclose(obj.grad(p), 2 * p)


def test_b_subproblem_subgradient_norm_underflow_raises():
    # s_k = 0 is decided on the array, as in the public busemann; a nonzero
    # s_k whose norm |s_k / p_k| underflows reaches the horofunction,
    # which raises
    m = DikinOrthant(3)
    prob = DCProblem(
        manifold=m,
        g=lambda p: float(np.sum(np.log(p.x) ** 2)),
        h=lambda p: 0.0,
        h_subgrad=lambda p: np.zeros(3),
        g_rgrad=lambda p: 2.0 * np.log(p.x) * p.x,
        name="dikin-quadratic")
    p_k = np.full(3, 1e200)
    with pytest.raises(ZeroDirectionError):
        make_b_subproblem(prob, p_k, np.full(3, 1e-100))


def test_b_subproblem_value_at_base_and_convexity():
    m = Hyperboloid(2)
    rng = make_rng(2)
    z = m.random_point(rng)
    prob = DCProblem(
        manifold=m,
        g=lambda p: m.dist(p.x, z) ** 2,
        h=lambda p: 0.0,
        h_subgrad=lambda p: m.random_tangent(p.x, make_rng(99)),
        g_rgrad=lambda p: -2.0 * m.log(p.x, z),
        name="hyp-quadratic")
    p_k = m.random_point(rng)
    s_k = m.random_tangent(p_k, rng)
    obj = make_b_subproblem(prob, p_k, s_k)
    assert obj.value(p_k) == pytest.approx(prob.g(m.point(p_k)), rel=1e-12)
    for _ in range(20):
        p1 = m.random_point(rng)
        p2 = m.random_point(rng)
        for t in (0.25, 0.5, 0.75):
            vt = obj.value(m.geodesic(p1, p2, t))
            assert vt <= (1 - t) * obj.value(p1) + t * obj.value(p2) + 1e-10


def test_inner_solve_quadratic():
    """From (5, 5) the first step, alpha = 10/|grad|, leaves the gradient
    at |1 - 2 alpha| = 0.26 of the start's, below the relative stop 0.7,
    so the solve returns after it; with a certificate that never holds
    it runs on to the fixed tolerance, at the minimizer c/2."""
    c = np.array([1.0, -3.0])
    prob = euclid_quadratic(2, c)
    p0 = np.array([5.0, 5.0])
    obj = make_cr_subproblem(prob, p0, c)
    grad0 = 2.0 * p0 - c
    p, iters, _ = inner_solve(obj, p0, 1e-8)
    assert iters == 1
    np.testing.assert_allclose(
        p.x, p0 - 10.0 / np.linalg.norm(grad0) * grad0, rtol=1e-15)
    p, iters, _ = inner_solve(obj, p0, 1e-8, certify=lambda q: False)
    np.testing.assert_allclose(p.x, c / 2, atol=1e-7)
    assert iters > 0
    # the returned point carries the values of g there
    fresh = prob.manifold.point(p.x.copy())
    assert p.derived(prob.g) == prob.g(fresh)
    np.testing.assert_array_equal(p.derived(prob.g_rgrad),
                                  prob.g_rgrad(fresh))
    assert obj.value(p) <= obj.value(p0) + 1e-12
    # starting at the minimizer costs zero iterations
    p2, iters2, _ = inner_solve(obj, c / 2, 1e-8)
    assert iters2 == 0
    np.testing.assert_array_equal(p2.x, c / 2)


@pytest.mark.parametrize("tol", [1e-12, 6.0], ids=["relative", "fixed"])
def test_inner_solve_stops_at_seven_tenths_of_the_start_gradient(tol,
                                                                 monkeypatch):
    """On an ill-conditioned Euclidean quadratic the inner solve returns
    the first iterate whose gradient norm is at most max(tol, 0.7 |grad|
    at the start): every iterate before it is above that bound.  (The
    start (3, 0.1) takes four steps to that level, and three to the fixed
    tol 6 above it; (3, 1), the start while the level was a tenth, stops
    after one step at 0.7.)"""
    from hadamard_dc.dc import SubproblemObjective
    prob = DCProblem(
        manifold=Euclidean(2),
        g=lambda p: float(p.x[0] ** 2 + 25.0 * p.x[1] ** 2),
        h=lambda p: 0.0, h_subgrad=lambda p: np.zeros(2),
        g_rgrad=lambda p: np.array([2.0, 50.0]) * p.x, name="ellipse")
    m = prob.manifold
    norms = []              # |grad| at each iterate, the start first
    ray = m._ray

    def counted_ray(p, d):
        norms.append(float(np.linalg.norm(d)))
        return ray(p, d)

    monkeypatch.setattr(m, "_ray", counted_ray)
    p, iters, _ = inner_solve(SubproblemObjective(prob),
                              np.array([3.0, 0.1]), tol)
    bound = max(tol, 0.7 * norms[0])
    assert iters == len(norms) - 1 >= 3
    assert norms[-1] <= bound < min(norms[:-1])
    assert np.linalg.norm(prob.g_rgrad(m.point(p.x))) == norms[-1]


def _contrastive_seed(seed):
    from hadamard_dc.problems import ContrastiveParams, contrastive_problem
    rng = make_rng(seed)
    prob = contrastive_problem(ContrastiveParams(n=5, m=5, r=4), rng)
    return prob, random_start(prob, rng)


def _short_steps(trace, sigma):
    """The indices k of the steps with phi(p_k) - phi(p_{k+1}) below
    (sigma/2) d(p_k, p_{k+1})^2, the decrease the complexity bound sums."""
    fvals = trace.fvals()
    return [k for k, d in enumerate(trace.step_dists())
            if fvals[k] - fvals[k + 1] < 0.5 * sigma * d * d]


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
def test_inexact_inner_solves_descend_and_certify_eps(alg):
    """Each inner solve stops at seven tenths of |grad phi(p_k)|, not at
    the fixed tolerance.  The subproblem majorizes phi up to a constant
    and touches it at p_k with the same gradient (the support inequality
    for b-DCA, convexity of h for the classic model), so any accepted
    step lowers phi: phi never rises between outer steps on valley starts
    0-19 and contrastive seeds 0-19, and every ``grad`` exit still
    certifies the outer tolerance.  Where sigma > 0 (the contrastive
    instances) every step also lowers phi by (sigma/2) d^2, which the
    relative stop certifies.  (Elsewhere phi may rise within the
    evaluation noise, by about 18 eps |g| on the valley, ROADMAP item 3.)"""
    runs = [_valley_start(s) for s in range(20)] \
        + [_contrastive_seed(s) for s in range(20)]
    for prob, start in runs:
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
        fvals = trace.fvals()
        assert all(b <= a for a, b in zip(fvals, fvals[1:]))
        assert trace.exit_reason in ("grad", "fixed_point")
        if trace.exit_reason != "fixed_point":
            assert trace.grad_norm <= trace.eps
        assert not _short_steps(trace, prob.sigma)


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
def test_relative_stop_needs_the_certificate_where_sigma_is_positive(alg):
    """On criterion 9's instance, g = |p - z1|^2 and h = |p - z2|^2 / 2
    (sigma 2), from a start with |grad phi(p0)| = 13 the first step
    alpha = 10/13 of the first inner solve leaves the subproblem gradient
    at |1 - 2 alpha| = 0.54 of the start's, below the relative stop, but
    lowers phi by less than (sigma/2) d^2 (which needs alpha <= 2/3).  The
    solve goes on until the decrease holds, so every step meets it and
    the complexity bound holds; on a sigma = 0 copy of the problem the
    stop asks for no certificate and the first step falls short."""
    rng = make_rng(8)
    z1, z2 = rng.standard_normal(4), rng.standard_normal(4)
    prob = euclid_strongly_convex(z1, z2)
    u = rng.standard_normal(4)
    p0 = 2.0 * z1 - z2 + 13.0 * u / np.linalg.norm(u)
    trace = run_dca(prob, p0, SolverConfig(algorithm=alg))
    assert trace.records[0].inner_iters >= 2
    assert not _short_steps(trace, prob.sigma)
    assert complexity_bound_check(trace, prob.sigma, prob.phi_inf) \
        == (True, None)
    uncertified = run_dca(dataclasses.replace(prob, sigma=0.0), p0,
                          SolverConfig(algorithm=alg))
    assert uncertified.records[0].inner_iters == 1
    assert _short_steps(uncertified, prob.sigma)[:1] == [0]


def test_inner_solve_monotone_on_spd_subproblem():
    prob = academic_problem(AcademicParams(n=4))
    x0 = prob.metadata["fixed_start"]
    s = prob.h_subgrad(prob.manifold.point(x0))
    obj = make_b_subproblem(prob, x0, s)
    p, iters, _ = inner_solve(obj, x0, 1e-6)
    assert obj.value(p) <= obj.value(x0) + 1e-12
    assert iters > 0


def test_inner_solve_checks_start_and_each_trial_once(monkeypatch):
    prob = rosenbrock_problem(RosenbrockParams())
    m = prob.manifold
    p0 = random_start(prob, make_rng(3))
    obj = make_b_subproblem(prob, p0, prob.h_subgrad(m.point(p0)))
    calls = {"check_point": 0, "_on_sheet": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(m, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(m, name, counted)
    with primitive_counter() as counter:
        _, iters, _ = inner_solve(obj, p0, 1e-6)
    # one ray step per trial; the start is checked by check_point, each
    # trial inside its step, and both run the sheet tests once
    trials = counter.counts["step"]
    assert trials >= iters > 0
    assert calls["check_point"] == 1
    assert calls["_on_sheet"] == 1 + trials


def test_inner_solve_stalls_on_ascent_gradient():
    # a deliberately wrong provider: the "gradient" points away from any
    # descent direction, so no step can satisfy the Armijo test
    from hadamard_dc.dc import SubproblemObjective
    bad = SubproblemObjective(g_only(lambda p: np.array([-10.0, 0.0])))
    start = np.array([1.0, 0.0])
    with pytest.raises(StalledInnerSolveError) as err:
        inner_solve(bad, start, 1e-10)
    np.testing.assert_array_equal(err.value.best_point, [1.0, 0.0])


def test_inner_solve_stall_after_progress_returns():
    """A line search that runs out of halvings after an accepted step
    returns the last accepted point and the step count."""
    from hadamard_dc.dc import SubproblemObjective
    start = np.array([1.0, 0.0])
    e1 = np.array([1.0, 0.0])
    # exact at the start, uphill everywhere after it
    obj = SubproblemObjective(g_only(
        lambda p: 2.0 * p.x if np.array_equal(p.x, start)
        else -2.0 * p.x - e1))
    p, iters, _ = inner_solve(obj, start, 1e-10)
    np.testing.assert_array_equal(p.x, [0.0, 0.0])
    assert iters == 1


def _noisy_bowl():
    """g = |p|^2 on R^2, h = 0, with g 1e-9 too high at every point but
    the first it is evaluated at: no trial from that start beats the
    noise, which is far above the representable decrease there, so none
    passes or counts as floored, even where the trial step rounds to the
    start itself (as on the valley, where such a trial is a renormalized
    copy of the start that evaluates higher)."""
    first = []

    def g(p):
        if not first:
            first.append(p)
        return float(p.x @ p.x) + (0.0 if p is first[0] else 1e-9)

    return DCProblem(manifold=Euclidean(2), g=g, h=lambda p: 0.0,
                     h_subgrad=lambda p: np.zeros(2),
                     g_rgrad=lambda p: 2.0 * p.x, name="noisy-bowl")


def test_inner_solve_first_search_on_the_noise_floor_returns_the_start():
    """A first line search that runs out of halvings where the gradient
    is within the floored test's guard (1e3 tol) returns the start with
    no step; above the guard it still raises."""
    from hadamard_dc.dc import SubproblemObjective
    start = np.array([1e-6, 0.0])          # |grad| = 2e-6
    obj = SubproblemObjective(_noisy_bowl())
    p, iters, first = inner_solve(obj, start, 1e-8, 3)
    np.testing.assert_array_equal(p.x, start)
    assert (iters, first) == (0, 3)
    obj = SubproblemObjective(_noisy_bowl())
    with pytest.raises(StalledInnerSolveError):
        inner_solve(obj, start, 1e-10)


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
def test_run_dca_noise_floor_stall_ends_at_a_fixed_point(alg):
    start = np.array([1e-6, 0.0])
    trace = run_dca(_noisy_bowl(), start,
                    SolverConfig(eps_base=1e-6, algorithm=alg))
    assert trace.exit_reason == "fixed_point"
    assert trace.k == 1 and trace.records[0].inner_iters == 0
    np.testing.assert_array_equal(trace.final.point, start)


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
def test_run_dca_stall_carries_partial_trace(alg):
    """An inner solve that cannot take its first step ends the run with
    StalledInnerSolveError and the trace up to the stalled iterate."""
    e1 = np.array([1.0, 0.0])
    prob = DCProblem(
        manifold=Euclidean(2),
        g=lambda p: float(p.x @ p.x),
        h=lambda p: 0.0,
        h_subgrad=lambda p: np.zeros(2),
        g_rgrad=lambda p: -2.0 * p.x - e1,    # uphill: no Armijo step exists
        name="uphill-gradient")
    with pytest.raises(StalledInnerSolveError) as err:
        run_dca(prob, np.array([1.0, 0.0]), SolverConfig(algorithm=alg))
    trace = err.value.trace
    assert trace.exit_reason == "stalled"
    assert len(trace.records) == 1
    assert trace.records[0].inner_iters == 0
    assert trace.records[0].step_dist == 0.0
    assert trace.time_s > 0.0


def test_valley_stall_after_progress_continues_the_run(caplog):
    """Valley start 381 stalls once inside an inner solve, after three
    accepted steps; the outer loop goes on from the returned point, and
    the run ends at a fixed point, the one outer step that took no inner
    step.  (Start 22 did so, after two steps, while each solve stopped at
    a tenth of |grad phi(p_k)|; at seven tenths no start of 0-399 but 381
    stalls after progress.)"""
    import logging
    prob = rosenbrock_problem(RosenbrockParams())
    p0 = random_start(prob, make_rng(381))
    with caplog.at_level(logging.DEBUG, logger="hadamard_dc.dc"):
        trace = run_dca(prob, p0, SolverConfig(algorithm="b_dca"))
    stalls = [r.message for r in caplog.records
              if "stalled after" in r.message]
    assert len(stalls) == 1 and "stalled after 3 iterations" in stalls[0]
    assert trace.exit_reason == "fixed_point"
    assert trace.records[-2].inner_iters == 0
    assert all(r.inner_iters >= 1 for r in trace.records[:-2])


def test_run_dca_two_steps_to_the_fixed_point():
    """On g = |p|^2, h = <c, p> the first inner solve stops after its one
    step alpha_s = 10/|grad phi(p0)|, where the gradient is |1 - 2 alpha_s|
    <= 0.7 of the start's (the relative stop); the second, with |grad| <
    10, halves alpha = 1 once to the exact minimizer c/2, and the run
    stops there on the gradient test.  (The exact DCA, and the inner
    solves stopped at a tenth, reached c/2 in one outer step.)"""
    c = np.array([2.0, -1.0, 0.5])
    prob = euclid_quadratic(3, c)
    rng = make_rng(3)
    for alg in ("cr_dca", "b_dca"):
        p0 = 5.0 * rng.standard_normal(3)
        assert 10.0 < np.linalg.norm(2.0 * p0 - c) < 10.0 / 0.15
        trace = run_dca(prob, p0, SolverConfig(algorithm=alg))
        assert trace.k == 2
        assert [r.inner_iters for r in trace.records] == [1, 1, 0]
        np.testing.assert_allclose(trace.final.point, c / 2, atol=1e-6)
        assert trace.exit_reason == "grad"


def test_run_dca_critical_start():
    c = np.array([2.0, 0.0])
    prob = euclid_quadratic(2, c)
    trace = run_dca(prob, c / 2, SolverConfig(algorithm="b_dca"))
    assert trace.k == 0
    assert trace.exit_reason == "grad"
    assert len(trace.records) == 1


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
def test_run_dca_stops_at_max_outer(alg):
    """A run that has not converged after max_outer steps exits
    "max_outer" with k == max_outer; max_outer = 0 leaves one record, at
    p0."""
    rng = make_rng(6)
    prob = euclid_strongly_convex(rng.standard_normal(3),
                                  rng.standard_normal(3))
    p0 = 4.0 * rng.standard_normal(3)
    trace = run_dca(prob, p0, SolverConfig(algorithm=alg, max_outer=3))
    assert trace.exit_reason == "max_outer"
    assert trace.k == 3 and len(trace.records) == 4
    assert trace.grad_norm > trace.eps
    none = run_dca(prob, p0, SolverConfig(algorithm=alg, max_outer=0))
    assert none.exit_reason == "max_outer"
    assert none.k == 0 and len(none.records) == 1
    assert np.array_equal(none.final.point, p0)
    assert none.final.inner_iters == 0 and none.final.step_dist == 0.0


def test_trial_outside_the_domain_is_rejected_and_the_search_halves():
    """g = (p - 2)^2 on R raises NumericalDomainError above 3.  From p0 = 0
    the first trial, alpha = 1, lands at 4: it is rejected, the search
    halves, and the trial at 2 is accepted, inside the domain with a
    lower phi."""
    def g(p):
        x = float(p.x[0])
        trials.append(x)
        if x > 3.0:
            raise NumericalDomainError("outside the domain of g")
        return (x - 2.0) ** 2

    trials = []
    prob = DCProblem(manifold=Euclidean(1), g=g, h=lambda p: 0.0,
                     h_subgrad=lambda p: np.zeros(1),
                     g_rgrad=lambda p: 2.0 * (p.x - 2.0), name="domain")
    trace = run_dca(prob, np.zeros(1), SolverConfig(algorithm="b_dca"))
    assert trials == [0.0, 4.0, 2.0]
    assert trace.records[0].inner_iters == 1
    assert trace.final.point[0] == 2.0
    assert trace.fval < trace.records[0].fval
    assert trace.exit_reason == "grad"


def test_flat_equivalence_of_algorithms():
    rng = make_rng(4)
    z1 = rng.standard_normal(3)
    z2 = rng.standard_normal(3)
    prob = euclid_strongly_convex(z1, z2)
    p0 = rng.standard_normal(3)
    tr_cr = run_dca(prob, p0, SolverConfig(algorithm="cr_dca"))
    tr_b = run_dca(prob, p0, SolverConfig(algorithm="b_dca"))
    assert tr_cr.k == tr_b.k
    for rc, rb in zip(tr_cr.records, tr_b.records):
        assert np.linalg.norm(np.asarray(rc.point) - np.asarray(rb.point)) \
            <= 1e-10


def test_descent_and_fval_monotone():
    rng = make_rng(5)
    z1 = rng.standard_normal(4)
    z2 = rng.standard_normal(4)
    prob = euclid_strongly_convex(z1, z2)
    trace = run_dca(prob, rng.standard_normal(4),
                    SolverConfig(algorithm="b_dca"))
    fvals = trace.fvals()
    sigma = prob.sigma
    steps = trace.step_dists()
    for i, d in enumerate(steps):
        assert fvals[i + 1] <= fvals[i] - 0.5 * sigma * d * d + 1e-9
    assert trace.exit_reason == "grad"
    assert trace.grad_norm <= trace.eps


def test_complexity_bound_check():
    rng = make_rng(6)
    z1 = rng.standard_normal(3)
    z2 = rng.standard_normal(3)
    prob = euclid_strongly_convex(z1, z2)
    trace = run_dca(prob, 4.0 * rng.standard_normal(3),
                    SolverConfig(algorithm="b_dca"))
    ok, witness = complexity_bound_check(trace, 2.0, prob.phi_inf)
    assert ok and witness is None
    # corrupting the first step distance produces a witness
    trace.records[0].step_dist = 1e6
    ok2, witness2 = complexity_bound_check(trace, 2.0, prob.phi_inf)
    assert not ok2
    assert witness2 == 0
    for sigma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            complexity_bound_check(trace, sigma, prob.phi_inf)
    with pytest.raises(ValueError):
        complexity_bound_check(trace, 2.0, None)
    # a trace without a step (here max_outer = 0) has no prefix to violate
    still = run_dca(prob, 4.0 * rng.standard_normal(3),
                    SolverConfig(algorithm="b_dca", max_outer=0))
    assert still.step_dists() == []
    assert complexity_bound_check(still, 2.0, prob.phi_inf) == (True, None)


def test_complexity_bound_check_fails_a_nan_step_or_bound():
    """A NaN step distance after the first, which min() skipped, and a
    NaN phi(p0), whose NaN bound no comparison exceeded, are violations
    at their first N."""
    rng = make_rng(6)
    prob = euclid_strongly_convex(rng.standard_normal(3),
                                  rng.standard_normal(3))
    trace = run_dca(prob, 4.0 * rng.standard_normal(3),
                    SolverConfig(algorithm="b_dca"))
    assert len(trace.step_dists()) > 2
    trace.records[2].step_dist = math.nan
    assert complexity_bound_check(trace, 2.0, prob.phi_inf) == (False, 2)
    trace.records[2].step_dist = math.inf
    assert complexity_bound_check(trace, 2.0, prob.phi_inf) == (False, 2)
    trace.records[2].step_dist = 0.0
    assert complexity_bound_check(trace, 2.0, prob.phi_inf) == (True, None)
    trace.records[0].fval = math.nan
    assert complexity_bound_check(trace, 2.0, prob.phi_inf) == (False, 0)


def test_stationarity_surrogate_at_step_exit():
    # when the run leaves via grad or confirmed step, the gradient surrogate
    # |grad g(p_k) - s_k| is within a small multiple of the tolerance
    prob = academic_problem(AcademicParams(n=4))
    x0 = prob.metadata["fixed_start"]
    for alg in ("cr_dca", "b_dca"):
        tr = run_dca(prob, x0, SolverConfig(algorithm=alg))
        assert tr.exit_reason == "grad"
        m = prob.manifold
        p = m.point(tr.final.point)
        resid = m.norm(p.x, prob.g_rgrad(p) - prob.h_subgrad(p)) * tr.gamma
        assert resid <= 10.0 * tr.eps


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_base=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_base=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(max_outer=-1)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="gd")
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            inner_solve(None, None, tol)


def test_problem_requires_g_rgrad():
    """grad g is a required field: the solver has one, gradient-based,
    path."""
    with pytest.raises(TypeError, match="g_rgrad"):
        DCProblem(manifold=Euclidean(2), g=lambda p: 0.0,
                  h=lambda p: 0.0, h_subgrad=lambda p: np.zeros(2))


def _counting_run(prob, start, alg):
    """run_dca with its evaluations of g, grad g and h counted, and its
    line-search trial steps: the calls of ``step`` of its rays."""
    counts = {"g": 0, "g_rgrad": 0, "h": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in ("g", "g_rgrad", "h"):
        setattr(prob, name, counted(name, getattr(prob, name)))
    with primitive_counter() as counter:
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
    counts["trials"] = counter.counts["step"]
    return trace, counts


def _valley_start(seed=20):
    prob = rosenbrock_problem(RosenbrockParams())
    return prob, random_start(prob, make_rng(seed))


def _contrastive_start():
    from hadamard_dc.problems import ContrastiveParams, contrastive_problem
    rng = make_rng(5)
    prob = contrastive_problem(ContrastiveParams(n=4, m=3, r=2), rng)
    return prob, random_start(prob, rng)


@pytest.mark.parametrize("alg", ["cr_dca", "b_dca"])
@pytest.mark.parametrize("instance", [_valley_start, _contrastive_start])
def test_run_dca_evaluates_each_point_once(instance, alg):
    """g once per trial point and grad g once per accepted inner iterate,
    carried on the point from the inner solve to the outer tests and into
    the next inner solve; p0 adds one g and one grad g, which scale_factor
    and the gradient test share."""
    prob, start = instance()
    trace, counts = _counting_run(prob, start, alg)
    assert trace.exit_reason in ("grad", "fixed_point")
    assert trace.k > 0 and counts["trials"] >= trace.inner_total
    assert counts["g_rgrad"] == trace.inner_total + 1
    assert counts["g"] == counts["trials"] + 1
    assert counts["h"] == len(trace.records)


def test_spd_trial_steps_take_the_iterates_factor(monkeypatch):
    """On SPD a trial point is Cholesky-factored once, by the definiteness
    test of the trial step that reached it, and the trial steps from one
    iterate share its factor through the ray that the iterate prepares:
    the first ray from an inner iterate inverts L (no gradient of the
    contrastive sums needs it), no later ray from it does, and no trial
    step inverts L or factors a point twice.  An outer iterate has L^-1
    before its first ray, from the subproblem build or the step
    distance."""
    from hadamard_dc.geometry import SPDManifold, spd
    counts = {"factor": 0, "cholesky": 0}
    made = {}               # base point bytes -> inversions per ray
    stepped = []            # (inversions, Cholesky factorizations) per step
    with_inverse, cholesky = spd._with_inverse, np.linalg.cholesky
    ray, step = SPDManifold._ray, spd.SPDRay.step

    def counted(name, fn):
        def wrapper(a):
            counts[name] += 1
            return fn(a)
        return wrapper

    def counted_ray(self, y, d):
        before = counts["factor"]
        out = ray(self, y, d)
        made.setdefault(y.x.tobytes(), []).append(counts["factor"] - before)
        return out

    def counted_step(self, t):
        before = dict(counts)
        out = step(self, t)
        stepped.append((counts["factor"] - before["factor"],
                        counts["cholesky"] - before["cholesky"]))
        return out

    instances = [_contrastive_start() for _ in range(2)]
    monkeypatch.setattr(spd, "_with_inverse",
                        counted("factor", with_inverse))
    monkeypatch.setattr(np.linalg, "cholesky",
                        counted("cholesky", cholesky))
    monkeypatch.setattr(SPDManifold, "_ray", counted_ray)
    monkeypatch.setattr(spd.SPDRay, "step", counted_step)
    for alg, (prob, start) in zip(("cr_dca", "b_dca"), instances):
        trace = run_dca(prob, start, SolverConfig(algorithm=alg))
        assert trace.inner_total > 0
    assert made and stepped
    # a step's one Cholesky factorization is its definiteness test, whose
    # factor the trial point keeps
    assert all(step == (0, 1) for step in stepped)
    assert all(rays[0] in (0, 1) and not any(rays[1:])
               for rays in made.values())
    assert any(rays[0] for rays in made.values())


def _trace_bytes(trace):
    """Every number of a trace but its times, the points as bytes."""
    return [(r.k, np.asarray(r.point).tobytes(), r.fval, r.grad_norm,
             r.inner_iters, r.step_dist) for r in trace.records] \
        + [trace.exit_reason]


@pytest.mark.parametrize("instance", [_valley_start, _contrastive_start],
                         ids=["valley", "contrastive"])
def test_warm_first_search_matches_cold(instance, monkeypatch):
    """On the horofunction subproblem the first line search of an inner
    solve starts at the grid index the previous one accepted, and it
    returns the cold search's point bit for bit with the same iteration
    count: per outer step, and over a whole b-DCA run against one whose
    every inner solve starts cold, with fewer trial steps."""
    from hadamard_dc import dc
    prob, start = instance()
    manifold = prob.manifold
    tol = dc._INNER_TOL_FACTOR * SolverConfig().eps_base
    p, index = manifold.point(start), 0
    warm_trials = cold_trials = 0
    for _ in range(25):
        objective = make_b_subproblem(prob, p, p.derived(prob.h_subgrad))
        with primitive_counter() as counter:
            cold = inner_solve(objective, p, tol)
        cold_trials += counter.counts["step"]
        with primitive_counter() as counter:
            warm = inner_solve(objective, p, tol, index)
        warm_trials += counter.counts["step"]
        assert warm[0].x.tobytes() == cold[0].x.tobytes()
        assert warm[1:] == cold[1:]
        p, index = cold[0], cold[2]
        if cold[1] == 0:
            break
    assert index > 0 and warm_trials < cold_trials

    with primitive_counter() as counter:
        warm_run = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
    warm_trials = counter.counts["step"]
    solve = dc.inner_solve
    monkeypatch.setattr(dc, "inner_solve",
                        lambda objective, start, tol, first_index, certify:
                        solve(objective, start, tol, certify=certify))
    with primitive_counter() as counter:
        cold_run = run_dca(prob, start, SolverConfig(algorithm="b_dca"))
    assert _trace_bytes(warm_run) == _trace_bytes(cold_run)
    assert warm_trials < counter.counts["step"]


def _recorded_steps(monkeypatch):
    """The step lengths t of the ``step`` calls of flat rays, in order."""
    from hadamard_dc.geometry.base import Ray
    steps, step = [], Ray.step

    def recorded(self, t):
        steps.append(t)
        return step(self, t)

    monkeypatch.setattr(Ray, "step", recorded)
    return steps


def _bowl(offset=0.0):
    """g = 10 |p|^2 + offset and h = 0 on R^2: from (0.3, 0) the gradient
    norm is 6, so the grid is 2^-i, and the Armijo test holds for steps
    up to (1 - 1e-4)/10, first at 1/16 (index 4)."""
    return DCProblem(manifold=Euclidean(2),
                     g=lambda p: 10.0 * float(p.x @ p.x) + offset,
                     h=lambda p: 0.0, h_subgrad=lambda p: np.zeros(2),
                     g_rgrad=lambda p: 20.0 * p.x, name="bowl")


@pytest.mark.parametrize("first_index, trials", [
    (0, [1.0, 0.5, 0.25, 0.125, 0.0625]),
    (2, [0.25, 0.125, 0.0625]),
    (4, [0.0625, 0.125]),
    (7, [2.0 ** -7, 2.0 ** -6, 2.0 ** -5, 0.0625, 0.125]),
])
def test_warm_first_search_halves_or_climbs_to_the_cold_step(
        first_index, trials, monkeypatch):
    """A warm start below the cold acceptance index halves on from it; one
    above it climbs while its trials pass and keeps the passing step of
    least index; the cold start (index 0) is the same loop with no climb.
    Every start accepts 1/16, and the solves agree bit for bit."""
    prob = _bowl()
    start = np.array([0.3, 0.0])
    objective = make_b_subproblem(prob, start, np.zeros(2))
    cold = inner_solve(objective, start, 1e-8)
    steps = _recorded_steps(monkeypatch)
    warm = inner_solve(objective, start, 1e-8, first_index)
    assert steps[:len(trials)] == trials
    assert warm[0].x.tobytes() == cold[0].x.tobytes()
    assert warm[1:] == cold[1:] and warm[2] == 4


def test_classic_first_search_starts_cold(monkeypatch):
    """The classic subproblem (scale -1) need not be geodesically convex,
    so its first line search starts at index 0 whatever index it is
    given, and makes the cold search's trials."""
    prob = _bowl()
    start = np.array([0.3, 0.0])
    objective = make_cr_subproblem(prob, start, np.zeros(2))
    steps = _recorded_steps(monkeypatch)
    cold = inner_solve(objective, start, 1e-8)
    cold_steps = list(steps)
    steps.clear()
    warm = inner_solve(objective, start, 1e-8, 7)
    assert steps == cold_steps and steps[:5] == [1.0, 0.5, 0.25, 0.125,
                                                 0.0625]
    assert warm[0].x.tobytes() == cold[0].x.tobytes()
    assert warm[1:] == cold[1:]


def test_warm_first_search_below_the_decrease_floor_starts_cold(
        monkeypatch):
    """Where 1e-4 alpha_i |grad|^2 at the given index is below the
    representable decrease 8 eps (1 + |f|) (here 1.8e-3, from an offset
    of 1e12 in g), a skipped trial could have met the floored test, so
    the search starts cold; without the offset the same index is warm."""
    start = np.array([0.3, 0.0])
    steps = _recorded_steps(monkeypatch)
    for offset, first in ((1e12, 1.0), (0.0, 2.0 ** -12)):
        objective = make_b_subproblem(_bowl(offset), start, np.zeros(2))
        steps.clear()
        inner_solve(objective, start, 1e-8, 12)
        assert steps[0] == first
    objective = make_b_subproblem(_bowl(1e12), start, np.zeros(2))
    assert inner_solve(objective, start, 1e-8, 12)[2] == 4


def _plateau():
    """g = |p|^2 / 4 + 1e6 and h = 0 on R^2: near 0 a decrease of g is
    below the representable decrease 8 eps (1 + |g|) = 1.8e-9."""
    return DCProblem(manifold=Euclidean(2),
                     g=lambda p: 0.25 * float(p.x @ p.x) + 1e6,
                     h=lambda p: 0.0, h_subgrad=lambda p: np.zeros(2),
                     g_rgrad=lambda p: 0.5 * p.x, name="plateau")


def test_floored_search_ends_the_inner_solve_without_a_step(monkeypatch):
    """A floored trial ends its line search at once, where running out of
    halvings would take ``_MAX_HALVINGS`` trials.  From (1e-5, 0) the first
    trial decreases g by 2e-11, which rounds away (the first index 3 is
    below the floor too, so the search is cold): the solve returns the
    start with no step and the first index it was given.  From
    (1.5e-4, 0) the first step decreases g by 4.2e-9 and is accepted, and
    the second search's first trial, by 1.4e-9, is floored: the solve
    returns the accepted point.  (The accepted step halves the gradient,
    below the relative stop of 0.7; a certificate that never holds keeps
    the solve going to the second search, as the stop at a tenth did.)"""
    from hadamard_dc.dc import _MAX_HALVINGS, SubproblemObjective
    objective = SubproblemObjective(_plateau())
    steps = _recorded_steps(monkeypatch)
    start = objective.problem.manifold.point(np.array([1e-5, 0.0]))
    p, iters, first = inner_solve(objective, start, 1e-8, 3)
    assert p is start and (iters, first) == (0, 3)
    assert steps == [1.0]
    steps.clear()
    p, iters, first = inner_solve(objective, np.array([1.5e-4, 0.0]), 1e-6,
                                  certify=lambda q: False)
    np.testing.assert_array_equal(p.x, [7.5e-5, 0.0])
    assert (iters, first) == (1, 0)
    assert len(steps) == 2 < _MAX_HALVINGS


@pytest.mark.parametrize("first_index", [-1, 60, 2.5])
def test_inner_solve_rejects_first_index_off_the_grid(first_index):
    objective = make_b_subproblem(_bowl(), np.array([0.3, 0.0]),
                                  np.zeros(2))
    with pytest.raises(ValidationError):
        inner_solve(objective, np.array([0.3, 0.0]), 1e-8, first_index)
