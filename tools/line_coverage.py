"""List the statements of ``src/`` that no test executes.

    python3 tools/line_coverage.py [pytest arguments ...]

Runs pytest in this process, from the repository root with ``src`` first
on ``sys.path``, under a ``sys.settrace`` tracer that records the lines
run in files under ``src/`` (module bodies at import included).  Then it
prints, per module, each statement that no traced line falls in: its
first line number and text, and a total.  The arguments go to pytest
unchanged (default ``-q``).  Statements are found with ``ast``: each
simple statement that compiles to code, that is, not a docstring or
other bare constant and not ``global``/``nonlocal``; a compound
statement's body is listed statement by statement.  A statement counts
as run when any of its lines was traced.  Exits with pytest's exit code.
Tracing slows the run about threefold.  Standard library and pytest
only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# statements that compile to no code of their own
_NO_CODE = (ast.Global, ast.Nonlocal)


def statements(source):
    """[(first line, last line, text of the first line)] of each simple
    statement of ``source`` that compiles to code, in line order."""
    lines = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or hasattr(node, "body") \
                or isinstance(node, _NO_CODE):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value,
                                                     ast.Constant):
            continue
        out.append((node.lineno, node.end_lineno,
                    lines[node.lineno - 1].strip()))
    return sorted(out)


def missed(source, executed):
    """[(line, text)] of the statements of ``source`` none of whose lines
    is in the set ``executed``."""
    return [(first, text) for first, last, text in statements(source)
            if not any(n in executed for n in range(first, last + 1))]


class LineTracer:
    """Records {file: set of lines} run in files under ``root``."""

    def __init__(self, root):
        self.prefix = os.path.abspath(root) + os.sep
        self.lines = {}
        self._traced = {}           # co_filename -> its line set, or None

    def _lines_of(self, filename):
        try:
            return self._traced[filename]
        except KeyError:
            path = os.path.abspath(filename)
            lines = self.lines.setdefault(path, set()) \
                if path.startswith(self.prefix) else None
            self._traced[filename] = lines
            return lines

    def __call__(self, frame, event, arg):
        lines = self._lines_of(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self)
        sys.settrace(self)

    def stop(self):
        """Put back the tracers that ``start`` replaced."""
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def traced(root, *runs):
    """{absolute path: set of lines} that the callables ``runs``, called in
    order under one ``LineTracer``, execute in files under ``root``."""
    tracer = LineTracer(root)
    tracer.start()
    try:
        for run in runs:
            run()
    finally:
        tracer.stop()
    return tracer.lines


def report(lines_by_file, root=SRC):
    """The report lines for every ``.py`` file under ``root``, given the
    traced lines per absolute path."""
    out, total, total_missed = [], 0, 0
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text()
        executed = lines_by_file.get(os.path.abspath(path), set())
        gone = missed(source, executed)
        total += len(statements(source))
        total_missed += len(gone)
        if gone:
            out.append(f"{path.relative_to(ROOT)}: {len(gone)} "
                       "statements not run")
            out += [f"  {line:5d}  {text}" for line, text in gone]
    out.append(f"total: {total_missed} of {total} statements not run")
    return out


def main(argv):
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    codes = []
    lines = traced(SRC, lambda: codes.append(pytest.main(argv or ["-q"])))
    print("\n".join(report(lines)))
    return int(codes[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
