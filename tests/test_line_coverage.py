"""``tools/line_coverage.py`` on in-memory source."""

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
    tracer = line_coverage.LineTracer(inside.parent)
    tracer.start()
    try:
        scope["h"](1)
        other["h"](1)
    finally:
        tracer.stop()
    assert tracer.lines == {str(inside): {2, 3}}
