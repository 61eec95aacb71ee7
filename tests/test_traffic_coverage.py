"""``tools/traffic_coverage.py`` with small in-memory workloads."""

import sys

from helpers import load_tool

from hadamard_dc.geometry.euclidean import Euclidean

traffic_coverage = load_tool("traffic_coverage")
line_coverage = traffic_coverage.line_coverage


def _report(monkeypatch, capsys, *runs):
    """The lines ``main`` prints when its workloads are ``runs``."""
    monkeypatch.chdir(line_coverage.ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(traffic_coverage, "workloads", lambda: runs)
    traffic_coverage.main()
    return capsys.readouterr().out.splitlines()


def test_main_reports_the_src_statements_the_workloads_leave(monkeypatch,
                                                             capsys):
    """``main`` traces the workloads over ``src/`` and prints the report:
    a workload that runs a kernel leaves fewer statements unrun, and the
    total counts every statement of ``src/``."""
    m = Euclidean(2)
    idle = _report(monkeypatch, capsys)
    busy = _report(monkeypatch, capsys,
                   lambda: m.dist([0.0, 0.0], [3.0, 4.0]))

    def total(lines):
        words = lines[-1].split()
        assert words[0] == "total:" and words[2] == "of"
        return int(words[1]), int(words[3])

    n = sum(len(line_coverage.statements(path.read_text()))
            for path in line_coverage.SRC.rglob("*.py"))
    assert total(idle)[1] == total(busy)[1] == n
    assert total(busy)[0] < total(idle)[0]
    assert idle == line_coverage.report({})
