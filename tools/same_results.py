"""Check that this tree's results are byte-identical to a parent checkout's.

    mkdir /tmp/parent && git archive <parent commit> | tar -x -C /tmp/parent
    python3 tools/same_results.py /tmp/parent [--valley] [--spd]

Runs each output tool of this tree once with the parent's ``src`` on
``PYTHONPATH`` and once with this tree's, so that both sides make the
same calls: ``tools/cli_rows.py`` with and without ``--golden`` (and
with ``--valley`` or ``--spd`` when asked, about 20 s and 8 s a side),
``tools/count_primitives.py``, ``tools/kernel_rows.py --seed 1`` and the
render of ``tests/test_golden_oracle.py``.  Then it runs each tree's
own ``perfbench/tests`` (``python -m pytest -q -p no:cacheprovider
--tb=line -rA perfbench/tests``, ``-rA`` naming every test's outcome)
with that tree's root as the working directory, since the benchmark's
``conftest.py`` puts its own tree's ``src`` first on ``sys.path``; the
output compared is one line per test, its outcome and, for a failure,
the tree-relative ``file:line`` of the failing assertion, with no reprs
or timings.  For each output it prints ``identical``, or how the two
outputs differ: for the rows of ``cli_rows.py`` the lines of the
``tools/row_moves.py`` report that name a move, and for every output the
first line that differs.  Exits 1 if any output differs.  First it
prints one line for information, ``src statements: parent N, change
M``, the statements of the two ``src`` trees as
``tools/line_coverage.py`` counts them (docstrings and comments are not
statements); it is not a difference.  Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_coverage  # noqa: E402
import row_moves  # noqa: E402

# (name, script and arguments, whether its output is cli_rows rows)
CHECKS = (
    ("cli_rows", ["tools/cli_rows.py"], True),
    ("cli_rows --golden", ["tools/cli_rows.py", "--golden"], True),
    ("count_primitives", ["tools/count_primitives.py"], False),
    ("kernel_rows --seed 1", ["tools/kernel_rows.py", "--seed", "1"], False),
    ("golden oracle", ["tests/test_golden_oracle.py"], False),
)
VALLEY = ("cli_rows --valley", ["tools/cli_rows.py", "--valley"], True)
SPD = ("cli_rows --spd", ["tools/cli_rows.py", "--spd"], True)
UNMOVED = re.compile(r": 0 of \d+ (rows|lines) moved$")
BENCH_TESTS = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line",
               "-rA", "perfbench/tests")
SECTION = re.compile(r"^=+ (.+?) =+$")
OUTCOME = re.compile(
    r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS) (?:\[\d+\] )?(\S+)")
LOCATION = re.compile(r"^(\S+\.py:\d+): ")


def compare(parent, change, rows=False):
    """[] when the two outputs, lists of lines, are equal; else the lines
    that say how they differ: with ``rows`` the lines of the row_moves
    report that name a move, then the first line that differs."""
    if parent == change:
        return []
    out = []
    if rows:
        out += [line for line in row_moves.report(parent, change)
                if not UNMOVED.search(line)]
    for i, (a, b) in enumerate(itertools.zip_longest(parent, change), 1):
        if a != b:
            out += [f"first difference, line {i}:",
                    f"  parent: {'<end of output>' if a is None else a}",
                    f"  change: {'<end of output>' if b is None else b}"]
            break
    return out


def src_statements(src):
    """The number of statements of the ``.py`` files under ``src``, as
    ``line_coverage.statements`` counts them."""
    return sum(len(line_coverage.statements(path.read_text()))
               for path in Path(src).rglob("*.py"))


def run(argv, src):
    """The stdout lines of this tree's script ``argv`` with ``src`` on
    PYTHONPATH, and the last stderr line when it exits nonzero."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode:
        err = proc.stderr.strip().splitlines() or [""]
        lines.append(f"# exited {proc.returncode}: {err[-1]}")
    return lines


def pytest_outcomes(output, root):
    """One line per test of a pytest run's ``output`` (run with
    ``--tb=line -rA``), sorted: the test's id and outcome, and for a
    failure or an error ``at`` the ``file:line`` of its ``--tb=line``
    location with the tree's ``root`` taken off, in the order pytest
    prints them in its FAILURES and ERRORS sections and its summary."""
    prefix = f"{root}{os.sep}"
    section, located = None, {"FAILURES": [], "ERRORS": []}
    outcomes = []
    for line in output.splitlines():
        head = SECTION.match(line)
        if head:
            section = head[1]
            continue
        line = line.replace(prefix, "")
        where = LOCATION.match(line)
        if where and section in located:
            located[section].append(where[1])
        found = OUTCOME.match(line)
        if found and section == "short test summary info":
            outcomes.append((found[2].rstrip(":"), found[1].lower()))
    places = {"failed": iter(located["FAILURES"]),
              "error": iter(located["ERRORS"])}
    lines = []
    for test, outcome in outcomes:
        at = next(places[outcome], None) if outcome in places else None
        lines.append(f"{test} {outcome}" + (f" at {at}" if at else ""))
    return sorted(lines)


def bench_tests(root):
    """``pytest_outcomes`` of the tree ``root``'s own ``perfbench/tests``,
    run from ``root``, and its last output line when pytest exits with
    more than test failures."""
    root = Path(root).resolve()
    proc = subprocess.run([sys.executable, *BENCH_TESTS], cwd=root,
                          capture_output=True, text=True)
    lines = pytest_outcomes(proc.stdout, root)
    if proc.returncode > 1:
        err = (proc.stdout + proc.stderr).strip().splitlines() or [""]
        lines.append(f"# exited {proc.returncode}: {err[-1]}")
    return lines


def show(name, report):
    """Print ``identical`` or ``differs`` and the report for one output;
    whether it differs."""
    print(f"{name}: {'differs' if report else 'identical'}")
    for line in report:
        print(f"  {line}")
    sys.stdout.flush()
    return bool(report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="root of the parent checkout")
    parser.add_argument("--valley", action="store_true",
                        help="also compare the valley rows of 400 starts")
    parser.add_argument("--spd", action="store_true",
                        help="also compare the spd-contrastive rows of 220 "
                             "runs")
    args = parser.parse_args(argv)
    if not (args.parent / "src").is_dir():
        parser.error(f"{args.parent} has no src directory")
    checks = CHECKS + ((VALLEY,) if args.valley else ()) \
        + ((SPD,) if args.spd else ())
    print(f"src statements: parent {src_statements(args.parent / 'src')}, "
          f"change {src_statements(ROOT / 'src')}")
    differ = False
    for name, script, rows in checks:
        differ |= show(name, compare(
            run(script, args.parent.resolve() / "src"),
            run(script, ROOT / "src"), rows))
    differ |= show("perfbench tests", compare(bench_tests(args.parent),
                                              bench_tests(ROOT)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
