"""Benchmark harness and CLI: schema, determinism, exit codes."""

import csv
import io
import json

import pytest

from hadamard_dc.bench import CSV_COLUMNS, records_to_csv, records_to_json
from hadamard_dc.cli import build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_time(csv_text):
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    idx = rows[0].index("time_s")
    return [[c for i, c in enumerate(r) if i != idx] for r in rows]


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
                 ["rosenbrock", "--theta", "0.5"],
                 ["rosenbrock", "--n", "-1"],
                 ["spd-contrastive", "--m", "0"]):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert "error:" in err


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
                                     best_value=1.0, iterations=3)
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
