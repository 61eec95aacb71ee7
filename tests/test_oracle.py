"""Numerical Busemann limit oracle against the closed forms."""

import warnings

import numpy as np
import pytest

from hadamard_dc import (BusemannRay, DikinOrthant, Euclidean, Hyperboloid,
                         NumericalDomainError, OracleSchedule, SPDManifold,
                         ZeroDirectionError, busemann_numeric, make_rng)
from helpers import random_ray


@pytest.mark.parametrize("manifold,tol", [
    (Euclidean(5), 1e-10),
    (DikinOrthant(3), 1e-10),
    (Hyperboloid(2), 1e-6),
    (Hyperboloid(5), 1e-6),
    (SPDManifold(3), 1e-5),
])
def test_oracle_matches_closed_form(manifold, tol):
    rng = make_rng(0)
    for _ in range(30):
        ray = random_ray(manifold, rng)
        p = manifold.random_point(rng)
        closed = manifold.busemann(ray, p)
        res = busemann_numeric(manifold, ray, p)
        assert abs(res.value - closed) <= tol


def test_oracle_rejects_zero_direction():
    m = Euclidean(3)
    ray = BusemannRay(np.zeros(3), np.zeros(3))
    with pytest.raises(ZeroDirectionError):
        busemann_numeric(m, ray, np.ones(3))


def test_flat_estimates_are_exact_at_any_anchor():
    m = Euclidean(4)
    rng = make_rng(1)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    closed = m.busemann(ray, p)
    res = busemann_numeric(m, ray, p)
    # every Richardson pair removes the 1/t bias exactly on flat geometry
    for est in res.estimates[1:]:
        assert abs(est - closed) <= 1e-12
    assert not res.refined


def test_hyperbolic_raw_sequence_converges_exponentially():
    m = Hyperboloid(2)
    q = np.array([0.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    ray = BusemannRay(q, v)
    # on the ray itself the defining difference is exact at finite t
    on_ray = m.exp(q, 1.0 * v)
    res = busemann_numeric(m, ray, on_ray)
    assert abs(res.raw_values[0] + 1.0) < 1e-12
    assert abs(res.value + 1.0) < 1e-10
    # off the ray the raw terms decay exponentially toward the limit
    p = m.exp(q, np.array([1.0, 0.7, 0.0]))
    res = busemann_numeric(m, ray, p)
    limit = m.busemann(ray, p)
    errors = [abs(raw - limit) for raw in res.raw_values[:4]]
    assert errors[0] < 1e-3
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]
    assert abs(res.value - limit) < 1e-10


def test_modes_agree_on_hyperbolic_inputs():
    m = Hyperboloid(2)
    rng = make_rng(2)
    for _ in range(10):
        ray = random_ray(m, rng)
        p = m.random_point(rng)
        diff = busemann_numeric(m, ray, p,
                                OracleSchedule(mode="difference")).value
        quot = busemann_numeric(m, ray, p,
                                OracleSchedule(mode="quotient")).value
        assert abs(diff - quot) <= 1e-8


def test_spd_reduced_distance_matches_plain_path():
    m = SPDManifold(3)
    rng = make_rng(3)
    for _ in range(20):
        y = m.random_point(rng)
        v = m.random_tangent(y, rng)
        vhat = v / m.norm(y, v)
        x = m.random_point(rng)
        probe = m._ray_probe(m.point(y), vhat, m.point(x))
        for t in (0.5, 2.0, 8.0):
            reduced = probe.distance(t)
            plain = m.dist(x, m.exp(y, t * vhat))
            assert abs(reduced - plain) <= 1e-8 * (1 + plain)


@pytest.mark.parametrize("manifold", [Hyperboloid(2), SPDManifold(3)])
def test_error_decreases_across_schedule(manifold):
    rng = make_rng(4)
    for _ in range(20):
        ray = random_ray(manifold, rng)
        p = manifold.random_point(rng)
        closed = manifold.busemann(ray, p)
        res = busemann_numeric(manifold, ray, p)
        errs = [abs(e - closed) for e in res.estimates[:4]]
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-12
        assert res.trend_ok()


def test_schedule_validation():
    with pytest.raises(ValueError):
        OracleSchedule(t_values=(5.0, 5.0))
    with pytest.raises(ValueError):
        OracleSchedule(t_values=())
    with pytest.raises(ValueError):
        OracleSchedule(t_values=(-1.0, 2.0))
    for ts in ((float("nan"),), (5.0, float("inf"))):
        with pytest.raises(ValueError, match="finite"):
            OracleSchedule(t_values=ts)
    with pytest.raises(ValueError):
        OracleSchedule(mode="secant")


@pytest.mark.parametrize("name,value", [
    ("refine_tol", float("nan")), ("refine_tol", -1.0),
    ("refine_tol", float("inf")), ("max_refine", -3), ("max_refine", 2.5),
])
def test_oracle_rejects_meaningless_refinement_arguments(name, value):
    """A refinement tolerance outside [0, inf) or a refinement count that is
    not an integer >= 0 is a ValueError naming it."""
    m = Hyperboloid(2)
    rng = make_rng(0)
    ray = random_ray(m, rng)
    with pytest.raises(ValueError, match=name):
        busemann_numeric(m, ray, m.random_point(rng), **{name: value})


def test_overflow_reports_offending_parameter():
    m = Hyperboloid(2)
    rng = make_rng(5)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    sched = OracleSchedule(t_values=(5.0, 400.0))
    with pytest.raises(OverflowError, match="t=400"):
        busemann_numeric(m, ray, p, sched, max_refine=0)


def test_refinement_probe_underflow_reports_unconverged():
    # a nearly degenerate SPD(5) direction: the sixth doubling (t=1920,
    # inside the probe's ray-parameter limit) underflows a singular value
    # of the reduced form
    m = SPDManifold(5)
    rng = make_rng(284)
    q = m.random_point(rng)
    p = m.random_point(rng)
    v = m.random_tangent(q, rng)
    ray = BusemannRay(q, v)
    # the Jacobi SVD converges and reports the underflow as a zero
    # singular value: no fallback, so no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = busemann_numeric(m, ray, p)
        assert not res.converged
        assert res.t_values[-1] == 960.0
        assert res.t_values == \
            busemann_numeric(m, ray, p, max_refine=5).t_values
        # the same probe in the base schedule still raises
        with pytest.raises(NumericalDomainError, match="underflow"):
            busemann_numeric(m, ray, p,
                             OracleSchedule(t_values=(5.0, 1920.0)),
                             max_refine=0)


def _steep_dikin_ray_and_point(manifold):
    # u/q = e_3 for the unit direction u: the exponential overflows past
    # t = 690
    q = np.array([1.0, 2.0, 0.5])
    return BusemannRay(q, np.array([0.0, 0.0, 0.5])), np.array([3.0, 0.5, 2.0])


def _random_ray_and_point(manifold):
    rng = make_rng(0)
    return random_ray(manifold, rng), manifold.random_point(rng)


@pytest.mark.parametrize("manifold,ray_and_point,last", [
    (Hyperboloid(2), _random_ray_and_point, 240.0),
    (Hyperboloid(2, 0.3), _random_ray_and_point, 480.0),
    (DikinOrthant(3), _steep_dikin_ray_and_point, 480.0),
    (SPDManifold(5), _random_ray_and_point, 960.0),
])
def test_refinement_runs_until_a_probe_leaves_the_domain(manifold,
                                                         ray_and_point, last):
    """With ``refine_tol=0`` the estimates never agree, so refinement
    doubles until the next probe raises: the hyperboloid's exponential
    past sqrt(kappa) t = 350, the Dikin orthant's past t max|u_i/q_i| =
    690, the SPD probe past t max|lam| = 1200 (or a singular value
    underflowing first).  The last parameters are those of the per-geometry
    guards the probes replaced."""
    ray, p = ray_and_point(manifold)
    res = busemann_numeric(manifold, ray, p, refine_tol=0.0, max_refine=30)
    assert res.t_values == [5.0, 10.0, 20.0, 30.0] + [
        t for t in (60.0, 120.0, 240.0, 480.0, 960.0) if t <= last]
    assert res.refined and not res.converged
    assert len(res.raw_values) == len(res.estimates) == len(res.t_values)


def test_a_refinement_probe_that_overflows_stops_refinement():
    """A doubling onto sqrt(kappa) t = 350 exactly was admitted by the
    guard 350 / sqrt(kappa), but |t u| rounds above 350 and the
    exponential raised its OverflowError out of the oracle; it now stops
    refinement like any probe that leaves its domain."""
    m = Hyperboloid(2)
    rng = make_rng(1)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    res = busemann_numeric(m, ray, p, OracleSchedule(t_values=(5.0, 175.0)),
                           refine_tol=0.0, max_refine=3)
    assert res.t_values == [5.0, 175.0]
    assert not res.refined and not res.converged
    with pytest.raises(OverflowError, match="t=350"):
        busemann_numeric(m, ray, p, OracleSchedule(t_values=(5.0, 350.0)),
                         max_refine=0)


def test_spd_probe_beyond_its_ray_parameter_limit_raises():
    """An SPD probe raises NumericalDomainError past t max|lam| = 1200,
    in the base schedule too (it computed there before), and computes at
    the limit itself."""
    m = SPDManifold(3)
    rng = make_rng(7)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    q = m.point(ray.base)
    probe = m._ray_probe(q, ray.direction / m.norm(q, ray.direction),
                         m.point(p))
    limit = probe.t_max
    assert limit == 1200.0 / float(abs(probe.lam).max())
    res = busemann_numeric(m, ray, p, OracleSchedule(t_values=(5.0, limit)),
                           max_refine=0)
    assert res.t_values == [5.0, limit]
    beyond = OracleSchedule(t_values=(5.0, np.nextafter(limit, np.inf)))
    with pytest.raises(NumericalDomainError, match="beyond"):
        busemann_numeric(m, ray, p, beyond, max_refine=0)


def _counted(monkeypatch, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_spd_oracle_factorizations_do_not_grow_with_probes(monkeypatch):
    """The ray's eigendecompositions and the point's Cholesky factor are
    computed once per call, however many probes the schedule makes."""
    m = SPDManifold(5)
    rng = make_rng(6)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    counts = _counted(monkeypatch, ("eigh", "eigvalsh", "cholesky"))
    per_call = []
    for ts in ((5.0, 10.0, 20.0, 30.0),
               (5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0)):
        before = dict(counts)
        res = busemann_numeric(m, ray, p, OracleSchedule(t_values=ts),
                               max_refine=0)
        assert len(res.raw_values) == len(ts)
        per_call.append({k: counts[k] - before[k] for k in counts})
    assert per_call[0] == per_call[1]
    assert per_call[0]["eigh"] > 0 and per_call[0]["cholesky"] > 0
    # the probe's ray-parameter limit comes from the spectrum it already
    # has
    assert per_call[0]["eigvalsh"] == 0


def test_spd_oracle_calls_the_jacobi_svd_through_the_module_global(
        monkeypatch):
    """The SPD probe reaches the Jacobi SVD through ``spd.dgejsv``, which
    imports it from scipy on its first call: a wrapper put there, as a
    tracer puts one, sees one call per probe, and the limit converges to
    the closed form."""
    from hadamard_dc.geometry import spd
    m = SPDManifold(4)
    rng = make_rng(3)
    ray = random_ray(m, rng)
    p = m.random_point(rng)
    calls = []
    dgejsv = spd.dgejsv

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return dgejsv(*args, **kwargs)

    monkeypatch.setattr(spd, "dgejsv", counted)
    res = busemann_numeric(m, ray, p)
    assert res.converged
    assert abs(res.value - m.busemann(ray, p)) <= 1e-5
    assert len(calls) == len(res.raw_values) > 0
    assert set(calls) == {(4, 4)}
