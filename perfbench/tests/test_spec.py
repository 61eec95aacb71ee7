import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import metrics

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_radial_minima_of_the_internal_valley():
    from workloads import radial_minima
    values = sorted(radial_minima(1.0, 100.0))
    assert len(values) == 2
    assert values[0] == pytest.approx(0.0, abs=1e-14)
    # the ring of local minima about the centre, d = 0.010208423834364...
    # (Newton's method in 40-digit decimals)
    assert values[1] == pytest.approx(0.98989687409518626, rel=1e-13)


def test_step_times_close_one_step_per_outer_iteration():
    from workloads import _step_times
    records = [SimpleNamespace(elapsed_s=t) for t in (0.5, 1.25, 2.0, 2.1)]
    trace = SimpleNamespace(records=records)
    assert _step_times(trace) == [0.5, 0.75, 0.75]


def _trace(algorithm, exit_reason="grad", fval=0.0, grad_norm=1e-6):
    return SimpleNamespace(algorithm=algorithm, exit_reason=exit_reason,
                           fval=fval, grad_norm=grad_norm, eps=1e-5)


def _workload(name):
    from workloads import SolverWorkload, radial_minima
    w = object.__new__(SolverWorkload)
    w.name, w.invocations = name, [None, None, None]
    w.minima = radial_minima(1.0, 100.0)
    return w


def test_solver_check_counts_stalls_and_jobs_not_run():
    from workloads import PassResult, StartRun
    stall = RuntimeError("line search stalled")
    starts = [StartRun([_trace("cr_dca"), _trace("b_dca")]),
              StartRun([_trace("cr_dca"), _trace("b_dca", "stalled")],
                       stall),
              StartRun([_trace("cr_dca", "stalled")], stall)]
    res = _workload("valley").check(PassResult(1.0, [], starts=starts))
    assert (res.attempted, res.failed, res.wrong) == (6, 3, 0)


def test_solver_check_flags_wrong_outputs():
    from workloads import PassResult, StartRun
    starts = [StartRun([_trace("cr_dca", "max_outer"),
                        _trace("b_dca", "step", grad_norm=2e-5)]),
              StartRun([_trace("cr_dca", "fixed_point", grad_norm=2e-5),
                        _trace("b_dca", fval=0.98989687409518626)]),
              StartRun([_trace("cr_dca", fval=0.5), _trace("b_dca")])]
    res = _workload("valley").check(PassResult(1.0, [], starts=starts))
    assert (res.failed, res.wrong) == (3, 3)
    # spd-contrastive compares each b run with the cr run of its start
    res = _workload("spd-contrastive").check(PassResult(1.0, [], starts=[
        StartRun([_trace("cr_dca", fval=-1.0), _trace("b_dca", fval=-1.0)]),
        StartRun([_trace("cr_dca", fval=-1.0), _trace("b_dca", fval=-1.1)]),
        StartRun([_trace("cr_dca", fval=-1.0), _trace("b_dca", fval=-1.0)])]))
    assert (res.failed, res.wrong) == (1, 1)


def test_fixed_point_counts_only_near_stationary():
    from workloads import FIXED_POINT_EPS_FACTOR, PassResult, StartRun
    near = FIXED_POINT_EPS_FACTOR * 1e-5
    res = _workload("valley").check(PassResult(1.0, [], starts=[
        StartRun([_trace("cr_dca", "fixed_point", grad_norm=near),
                  _trace("b_dca", "fixed_point", grad_norm=1.01 * near)])]))
    assert (res.failed, res.wrong) == (1, 1)
    # an inner solve that never moves leaves both runs at the start, where
    # they agree on fval; the gradient still fails them
    res = _workload("spd-contrastive").check(PassResult(1.0, [], starts=[
        StartRun([_trace("cr_dca", "fixed_point", fval=-1.0, grad_norm=1.0),
                  _trace("b_dca", "fixed_point", fval=-1.0, grad_norm=1.0)])]))
    assert (res.failed, res.wrong) == (2, 2)


def test_repeated_passes_count_each_operation_once():
    from workloads import PassResult, StartRun
    w = _workload("valley")
    stall = RuntimeError("line search stalled")
    fine = StartRun([_trace("cr_dca"), _trace("b_dca")])
    first = PassResult(1.0, [], starts=[
        fine, StartRun([_trace("cr_dca"), _trace("b_dca", "stalled")], stall),
        fine])
    total = w.check(first)
    assert total.merge(w.check(first)) == []
    assert (total.attempted, total.failed, total.wrong) == (6, 1, 0)
    # a failure that shows in a later pass only is still counted
    later = PassResult(1.0, [], starts=[
        fine, fine, StartRun([_trace("cr_dca", fval=0.5), _trace("b_dca")])])
    assert len(total.merge(w.check(later))) == 1
    assert (total.attempted, total.failed, total.wrong) == (6, 2, 1)


def test_kernels_pass_reports_the_declared_kernel_metrics():
    from workloads import KernelsWorkload
    w = KernelsWorkload(0)
    assert tuple(w.geometries) == metrics.KERNEL_GEOMETRIES
    result = w.run_pass()
    assert len(result.step_s) == len(w.pool)
    names = {f"kernels.{g}.{op}.{phase}.us_per_call"
             for g, op, phase in result.call_s}
    declared = {name for name, _, _ in metrics.PER_LAYER
                if name.startswith("kernels.")}
    assert names == declared
    from hadamard_dc.geometry import BusemannRay
    rays = [a for _, _, args, _ in result.outputs for a in args
            if isinstance(a, BusemannRay)]
    assert len({id(r) for r in rays}) == len(rays)       # no ray reuse
    check = w.check(result)
    assert check.attempted == len(w.pool) * sum(
        len(metrics.kernel_ops(g)) for g in metrics.KERNEL_GEOMETRIES) * 2
    assert check.wrong == 0


def test_each_job_is_scaled_by_its_own_calibration():
    from run import CAL_REFERENCE_S as REF, at_reference_speed
    from workloads import Job, PassResult
    p = PassResult(9.0, [Job(1.0, [0.4, 0.6], REF),
                         Job(2.0, [1.0, 1.0], 2.0 * REF)])
    assert at_reference_speed(p) == (0.5, [0.4, 0.6, 0.5, 0.5])
    # no step at all: the pass counts as one step
    assert at_reference_speed(PassResult(1.0, [Job(1.0, [], REF)])) \
        == (1.0, [])
