"""Print the non-time CSV columns of eight fixed benchmark invocations.

Each invocation runs in-process through ``hadamard_dc.cli.main`` and is
printed as a ``# hadamard-dc <flags>`` line followed by its CSV rows
without the ``time_s`` column.  Every printed column is a deterministic
function of the flags, so two checkouts agree line for line exactly when
their results are byte-identical:

    PYTHONPATH=<checkout>/src python tools/cli_rows.py > rows.txt

Run it on both checkouts and ``diff`` the two files.  It takes no flags.
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
    ["spd-contrastive", "--n", "5", "--m", "5", "--r", "4"],
    ["spd-contrastive", "--n", "4", "--m", "3", "--r", "0"],
    ["spd-academic", "--n", "4"],
    ["spd-academic", "--n", "6"],
)


def rows_without_time(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--algorithm", "both"])
    if code != 0:
        raise SystemExit(f"hadamard-dc {' '.join(argv)} exited {code}")
    rows = [line.split(",") for line in out.getvalue().splitlines()]
    drop = rows[0].index("time_s")
    return [",".join(c for i, c in enumerate(r) if i != drop) for r in rows]


def run():
    for argv in INVOCATIONS:
        print("# hadamard-dc " + " ".join(argv))
        for line in rows_without_time(argv):
            print(line)
        sys.stdout.flush()


if __name__ == "__main__":
    run()
