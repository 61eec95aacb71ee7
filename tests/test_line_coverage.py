"""``tools/line_coverage.py`` on in-memory source."""

import sys

from helpers import load_tool

line_coverage = load_tool("line_coverage")

SOURCE = '''\
"""Module docstring."""

import math

X = 1


def f(a):
    """Docstring."""
    global X
    if a > 0:
        return math.sqrt(
            a)
    ...
    raise NotImplementedError


class C:
    """Docstring."""

    y: int = 2

    def g(self):
        pass
'''


def test_statements_are_the_simple_statements_with_code():
    """Docstrings, bare constants and ``global`` are left out; a compound
    statement is listed by the statements of its body."""
    assert line_coverage.statements(SOURCE) == [
        (3, 3, "import math"),
        (5, 5, "X = 1"),
        (12, 13, "return math.sqrt("),
        (15, 15, "raise NotImplementedError"),
        (21, 21, "y: int = 2"),
        (24, 24, "pass"),
    ]


def test_missed_lists_statements_with_no_traced_line():
    """A statement counts as run when any of its lines was traced."""
    executed = {3, 5, 8, 11, 13, 18, 21, 23}
    assert line_coverage.missed(SOURCE, executed) == [
        (15, "raise NotImplementedError"),
        (24, "pass"),
    ]
    assert line_coverage.missed(SOURCE, set()) == [
        (first, text)
        for first, _, text in line_coverage.statements(SOURCE)]


def test_tracer_records_lines_under_its_root_only(tmp_path):
    """Lines run in a file under the root are recorded by absolute path;
    code compiled from another file name is not traced."""
    inside = tmp_path / "pkg" / "mod.py"
    inside.parent.mkdir()
    code = "def h(a):\n    b = a + 1\n    return b\n"
    inside.write_text(code)
    scope = {}
    exec(compile(code, str(inside), "exec"), scope)
    other = {}
    exec(compile(code, str(tmp_path / "other.py"), "exec"), other)
    lines = line_coverage.traced(inside.parent,
                                 lambda: (scope["h"](1), other["h"](1)))
    assert lines == {str(inside): {2, 3}}


def test_traced_records_the_lines_of_every_run(tmp_path):
    """The lines that the runs execute, over all runs; the tracer in
    place before is back afterwards."""
    path = tmp_path / "pkg" / "mod.py"
    path.parent.mkdir()
    code = "def f(a):\n    if a > 0:\n        return 1\n    return 2\n"
    path.write_text(code)
    scope = {}
    exec(compile(code, str(path), "exec"), scope)
    before = sys.gettrace()
    lines = line_coverage.traced(path.parent, lambda: scope["f"](1),
                                 lambda: scope["f"](-1))
    assert sys.gettrace() is before
    assert lines == {str(path): {2, 3, 4}}
    assert line_coverage.missed(code, lines[str(path)]) == []


def test_traced_runs_nothing_when_given_nothing(tmp_path):
    assert line_coverage.traced(tmp_path) == {}
