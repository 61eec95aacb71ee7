"""Benchmark harness and CLI: schema, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard_dc
from hadamard_dc.bench import (CSV_COLUMNS, family_params, records_to_csv,
                               records_to_json)
from hadamard_dc.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_time(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    idx = rows[0].index("time_s")
    return [[c for i, c in enumerate(r) if i != idx] for r in rows]


def test_family_params_rejects_an_unknown_benchmark():
    """A subcommand that names no benchmark family is a ValueError naming
    it, whatever the flags."""
    args = build_parser().parse_args(["spd-academic"])
    with pytest.raises(ValueError, match="unknown benchmark 'verify'"):
        family_params("verify", args)


def test_csv_schema_and_values(capsys):
    code, out, _ = run_cli(["spd-academic", "--n", "4",
                            "--algorithm", "both"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == list(CSV_COLUMNS)
    assert len(rows) == 2
    assert {r["algorithm"] for r in rows} == {"b", "cr"}
    for r in rows:
        assert float(r["fval"]) == pytest.approx(-0.25, abs=1e-5)
        assert int(r["k"]) > 0
        assert float(r["inn_per_k"]) == pytest.approx(
            int(r["inn"]) / int(r["k"]))


def test_float_fields_have_full_precision(capsys):
    _, out, _ = run_cli(["spd-academic", "--n", "4", "--algorithm", "cr"],
                        capsys)
    row = list(csv.DictReader(io.StringIO(out)))[0]
    # 17 significant digits round-trip through repr
    val = float(row["fval"])
    assert format(val, ".17g") == row["fval"]


def test_determinism_modulo_time(capsys):
    args = ["spd-contrastive", "--runs", "2", "--seed", "3",
            "--algorithm", "both"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert strip_time(out1) == strip_time(out2)
    assert out1.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_json_format_is_flat(capsys):
    code, out, _ = run_cli(["spd-academic", "--n", "4", "--algorithm", "b",
                            "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list)
    for rec in data:
        assert set(rec.keys()) == set(CSV_COLUMNS)
        assert not any(isinstance(v, (dict, list)) for v in rec.values())


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code, out, _ = run_cli(["spd-academic", "--n", "4", "--algorithm", "cr",
                            "--output", str(path)], capsys)
    assert code == 0
    assert out == ""
    text = path.read_text()
    assert text.startswith(",".join(CSV_COLUMNS))


def test_flag_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spd-academic", "--algorithm", "sgd"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["unknown-subcommand"])
    assert exc.value.code == 2
    for argv in (["spd-academic", "--runs", "-1"],
                 ["spd-academic", "--runs", "0"],
                 ["spd-academic", "--max-outer", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    # bad parameter values: one line on stderr, no rows, no traceback
    capsys.readouterr()
    for argv in (["spd-academic", "--eps", "-1"],
                 ["spd-academic", "--n", "1"],
                 ["spd-academic", "--n", "2"],
                 ["rosenbrock", "--theta", "0.5"],
                 ["rosenbrock", "--n", "-1"],
                 ["spd-contrastive", "--m", "0"],
                 ["rosenbrock", "--n", "0"],
                 ["spd-academic", "--n", "0"],
                 ["spd-contrastive", "--n", "0"],
                 ["spd-academic", "--eps", "nan"],
                 ["spd-academic", "--eps", "inf"],
                 ["rosenbrock", "--a", "nan"],
                 ["rosenbrock", "--theta", "nan"],
                 ["rosenbrock", "--b", "inf"],
                 ["verify", "--tol-scale", "nan"],
                 ["verify", "--tol-scale", "inf"],
                 ["verify", "--tol-scale", "-1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err


def test_output_into_missing_directory_exits_2(tmp_path, capsys,
                                               monkeypatch):
    """An --output path whose directory does not exist, or that is a
    directory, is a usage error found before the first solve."""
    import hadamard_dc.bench as bench
    solves = []
    monkeypatch.setattr(bench, "run_dca",
                        lambda *args: solves.append(args))
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(["rosenbrock", "--runs", "1",
                                  "--output", str(path)], capsys)
        assert code == 2, path
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err
    assert solves == []
    assert not (tmp_path / "missing").exists()


def test_out_of_range_seed_exits_2(capsys):
    """A run seed outside the Philox keys [0, 2^64) is a usage error found
    before any solve, not an overflow after some runs."""
    for argv in (["rosenbrock", "--seed", "-1", "--runs", "1"],
                 ["verify", "--seed", "-1"],
                 ["rosenbrock", "--seed", str(2**64 - 1), "--runs", "2"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err and "Traceback" not in err


def _no_solve(*args, **kwargs):
    raise AssertionError("ran before checking the seeds")


def test_run_verify_checks_seeds_first(monkeypatch):
    """A library call with a seed outside [0, 2^64) raises ValueError
    before any suite runs, instead of OverflowError from make_rng."""
    import hadamard_dc.verify as verify
    monkeypatch.setattr(verify, "ALL_SUITES", (_no_solve,))
    with pytest.raises(ValueError, match="2\\^64"):
        verify.run_verify(seeds=[0, -1])


def test_run_benchmark_checks_seeds_first(monkeypatch):
    """run_benchmark checks every run seed before it builds a problem."""
    import hadamard_dc.bench as bench
    monkeypatch.setattr(bench, "make_problem", _no_solve)
    for seed, runs in ((-1, 1), (2**64 - 1, 2), (2**64, 1)):
        args = build_parser().parse_args(
            ["rosenbrock", "--seed", str(seed), "--runs", str(runs)])
        with pytest.raises(ValueError, match="2\\^64"):
            bench.run_benchmark("rosenbrock", args)


def test_cli_runs_load_no_scipy():
    """Importing the package and running each benchmark family loads
    numpy alone: scipy's Jacobi SVD is imported by the first limit probe.
    A fresh interpreter, since this one imports scipy elsewhere."""
    script = (
        "import contextlib, io, json, sys\n"
        "import hadamard_dc, hadamard_dc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [hadamard_dc.cli.main(argv) for argv in (\n"
        "        ['rosenbrock', '--runs', '1'],\n"
        "        ['spd-contrastive', '--runs', '1'], ['spd-academic'])]\n"
        "print(json.dumps([codes, sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n")
    src = str(Path(hadamard_dc.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []


def test_far_valley_axis_point_overflow_exits_2(capsys):
    # a = 100 puts the default qbar at radius 1e4, where cosh overflows
    code, out, err = run_cli(["rosenbrock", "--a", "100", "--runs", "1"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "overflows" in err and "Traceback" not in err


@pytest.mark.parametrize("a", ["18", "26"])
def test_far_valley_references_run(a, capsys):
    # the reference points lie hundreds of units out on the axis, where
    # their Lorentz product cancels; the problem is built and solved (a
    # stall exits 3) instead of failing its radii check
    code, out, _ = run_cli(["rosenbrock", "--a", a, "--runs", "1"], capsys)
    assert code in (0, 3)
    assert out.startswith(",".join(CSV_COLUMNS))


def test_rosenbrock_default_b_depends_on_tangency():
    parser = build_parser()
    args = parser.parse_args(["rosenbrock", "--tangency", "external"])
    assert args.b is None          # resolved to 2.0 inside make_problem
    from hadamard_dc.bench import make_problem
    from hadamard_dc.rng import make_rng
    prob = make_problem("rosenbrock", args, make_rng(0))
    assert prob.name == "rosenbrock-external"


def test_verify_passes_and_negative_control(capsys):
    code, out, _ = run_cli(["verify"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 5
    assert all(ln.startswith("[PASS]") for ln in lines)

    code_bad, out_bad, _ = run_cli(["verify", "--tol-scale", "0"], capsys)
    assert code_bad == 1
    assert "[FAIL]" in out_bad
    assert "worst:" in out_bad


def test_verify_suite_fails_a_nan_error():
    """A NaN error, which no comparison with the worst ratio picked up,
    makes the suite's worst violation inf, and a later finite error does
    not lower it."""
    col = hadamard_dc.verify._Collector(1.0)
    col.add("x", 0.5e-9, 1e-9)
    col.add("nan", math.nan, 1e-9)
    col.add("y", 0.0, 1e-9)
    result = hadamard_dc.verify.SuiteResult("suite", col.worst, col.witness)
    assert result.max_violation == math.inf
    assert result.witness.startswith("nan ")
    assert not result.passed


def test_verify_seeds_share_pass_fail(capsys):
    code, out, _ = run_cli(["verify", "--seed", "1", "--seed", "2"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(lines) == 10
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_records_serialization_helpers():
    from hadamard_dc.bench import RunRecord
    rec = RunRecord(problem="p", algorithm="cr", run=0, seed=1, k=2, inn=3,
                    inn_per_k=1.5, fval=-0.25, grad_norm=1e-7, time_s=0.1)
    text = records_to_csv([rec])
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    data = json.loads(records_to_json([rec]))
    assert data[0]["problem"] == "p"


def test_solver_stall_exits_3(monkeypatch, capsys, tmp_path):
    import hadamard_dc.bench as bench
    from hadamard_dc.dc import IterationRecord, SolverTrace, run_dca
    from hadamard_dc.errors import StalledInnerSolveError

    calls = {"n": 0}

    def fake_run_dca(problem, start, cfg):
        calls["n"] += 1
        trace = SolverTrace(gamma=1.0, eps=1e-4, algorithm=cfg.algorithm,
                            problem=problem.name)
        trace.records.append(IterationRecord(
            k=0, point=start, fval=1.0, grad_norm=1.0, inner_iters=3,
            step_dist=0.0, elapsed_s=0.0))
        trace.exit_reason = "stalled"
        err = StalledInnerSolveError("stalled", best_point=start,
                                     best_value=1.0)
        err.trace = trace
        raise err

    monkeypatch.setattr(bench, "run_dca", fake_run_dca)
    path = tmp_path / "partial.csv"
    code = main(["spd-academic", "--n", "4", "--algorithm", "both",
                 "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "stall" in captured.err
    # the partial record was preserved
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert len(rows) == 1
    assert calls["n"] == 1

    # cr succeeds and b stalls: the rows keep the normal path's order
    def stall_b(problem, start, cfg):
        if cfg.algorithm == "b_dca":
            return fake_run_dca(problem, start, cfg)
        return run_dca(problem, start, cfg)

    monkeypatch.setattr(bench, "run_dca", stall_b)
    code = main(["spd-academic", "--n", "4", "--algorithm", "both",
                 "--output", str(path)])
    assert code == 3
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    assert [r["algorithm"] for r in rows] == ["b", "cr"]
    monkeypatch.setattr(bench, "run_dca", run_dca)
    assert main(["spd-academic", "--n", "4", "--algorithm", "both"]) == 0
    normal = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["algorithm"] for r in normal] == ["b", "cr"]
