"""Print the non-time CSV columns and exit codes of nine fixed benchmark
invocations.

Each invocation runs in-process through ``hadamard_dc.cli.main`` and is
printed as a ``# hadamard-dc <flags>`` line, its CSV rows without the
``time_s`` column, and a ``# exit <code>`` line.  A nonzero code does
not stop the tool: ``rosenbrock --runs 20 --seed 460`` stalls (exit 3)
and prints the partial rows written before the stall.  Every printed
column is a deterministic function of the flags, so two source trees
agree line for line exactly when their results are byte-identical.
Run this file from one checkout against both trees, so that both run
the same invocations:

    PYTHONPATH=<parent checkout>/src python tools/cli_rows.py > parent.txt
    PYTHONPATH=src python tools/cli_rows.py > change.txt

and ``diff`` the two files.  It takes no flags.
"""

import contextlib
import io
import sys

from hadamard_dc.cli import main

INVOCATIONS = (
    ["rosenbrock"],
    ["rosenbrock", "--n", "5"],
    ["rosenbrock", "--theta", "2"],
    ["rosenbrock", "--tangency", "external"],
    ["rosenbrock", "--runs", "20", "--seed", "460"],
    ["spd-contrastive", "--n", "5", "--m", "5", "--r", "4"],
    ["spd-contrastive", "--n", "4", "--m", "3", "--r", "0"],
    ["spd-academic", "--n", "4"],
    ["spd-academic", "--n", "6"],
)


def rows_without_time(argv):
    """(CSV lines without the time_s column, exit code) of one run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--algorithm", "both"])
    rows = [line.split(",") for line in out.getvalue().splitlines()]
    drop = rows[0].index("time_s") if rows else None
    return [",".join(c for i, c in enumerate(r) if i != drop)
            for r in rows], code


def run():
    for argv in INVOCATIONS:
        print("# hadamard-dc " + " ".join(argv))
        lines, code = rows_without_time(argv)
        for line in lines:
            print(line)
        print(f"# exit {code}")
        sys.stdout.flush()


if __name__ == "__main__":
    run()
