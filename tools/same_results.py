"""Check that this tree's results are byte-identical to a parent checkout's.

    mkdir /tmp/parent && git archive <parent commit> | tar -x -C /tmp/parent
    python3 tools/same_results.py /tmp/parent [--valley]

Runs each output tool of this tree once with the parent's ``src`` on
``PYTHONPATH`` and once with this tree's, so that both sides make the
same calls: ``tools/cli_rows.py`` with and without ``--golden`` (and
with ``--valley`` when asked, about 20 s a side),
``tools/count_primitives.py``, ``tools/kernel_rows.py --seed 1`` and the
render of ``tests/test_golden_oracle.py``.  For each it prints
``identical``, or how the two outputs differ: for the rows of
``cli_rows.py`` the lines of the ``tools/row_moves.py`` report that name
a move, and for every output the first line that differs.  Exits 1 if
any output differs.  Standard library only.
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
UNMOVED = re.compile(r": 0 of \d+ (rows|lines) moved$")


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="root of the parent checkout")
    parser.add_argument("--valley", action="store_true",
                        help="also compare the valley rows of 400 starts")
    args = parser.parse_args(argv)
    if not (args.parent / "src").is_dir():
        parser.error(f"{args.parent} has no src directory")
    checks = CHECKS + ((VALLEY,) if args.valley else ())
    differ = False
    for name, script, rows in checks:
        report = compare(run(script, args.parent.resolve() / "src"),
                         run(script, ROOT / "src"), rows)
        print(f"{name}: {'differs' if report else 'identical'}")
        for line in report:
            print(f"  {line}")
        differ = differ or bool(report)
        sys.stdout.flush()
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
