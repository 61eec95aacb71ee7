"""``tools/bench_pairs.py``: the per-pass figures of a run's ``#`` lines
and the summary line of a metric that is not gated."""

from helpers import load_tool

bench_pairs = load_tool("bench_pairs")

SOLVER_RUN = [
    "# perfbench spd-contrastive seed=5 trace=0",
    "# 40 passes in 35.00 s, 52040 steps; 14 operations per pass, 0 failed, "
    "0 of them with wrong output; set-up median of 3",
    "# machine speed: calibration median 1.000 ms against 1.000 ms; "
    "unscaled CPU time 0.8 ms per step",
    "# per pass: outer_iters 1301, inner_iters 1410, 0 of 14 runs stopped "
    "at a fixed point above eps (largest gradient/eps 0)",
]


def test_pass_figures_of_a_solver_run():
    assert bench_pairs.pass_figures(SOLVER_RUN) == {
        "passes": 40, "s_per_pass": 0.875, "outer_per_pass": 1301,
        "inner_per_pass": 1410}


def test_pass_figures_without_a_per_pass_line():
    """The kernels workload prints no ``per pass`` line."""
    lines = SOLVER_RUN[:2]
    assert bench_pairs.pass_figures(lines) == {"passes": 40,
                                               "s_per_pass": 0.875}


def test_summary_of_a_metric_without_a_bound():
    line = bench_pairs.summary({"name": "s_per_pass", "better": "lower"},
                               [2.0, 2.2, 2.1], [1.0, 1.1, 1.2], True)
    assert line.startswith("s_per_pass")
    assert "-47.6%" in line and "won 3/3" in line
    assert "(bound none, not gated)" in line
