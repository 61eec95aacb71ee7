"""Print the non-time CSV columns and exit codes of nine fixed benchmark
invocations, and the lines of ``verify --seed 0 --seed 1 --seed 2``.

Each invocation runs in-process through ``hadamard_dc.cli.main`` and is
printed as a ``# hadamard-dc <flags>`` line, its CSV rows without the
``time_s`` column, and a ``# exit <code>`` line.  A benchmark runs with
``--algorithm both``; ``verify`` takes no ``--algorithm`` and has no
time column, so its lines are printed as they are.  A nonzero code does
not stop the tool: a run that stalls (exit 3) prints the partial rows
written before the stall.  Every printed column is a deterministic
function of the flags, so two source trees agree line for line exactly
when their results are byte-identical.
Run this file from one checkout against both trees, so that both run
the same invocations:

    PYTHONPATH=<parent checkout>/src python tools/cli_rows.py > parent.txt
    PYTHONPATH=src python tools/cli_rows.py > change.txt

and ``diff`` the two files.  With ``--golden`` it prints instead a
``# build`` line naming the numpy and BLAS/LAPACK build, then the three
quick invocations whose lines ``tests/test_golden_rows.py`` compares
with ``tests/data/golden_rows.txt``; a change that moves those rows on
purpose rewrites the file with

    PYTHONPATH=src python tools/cli_rows.py --golden > tests/data/golden_rows.txt

and says which rows moved and why.  With ``--valley`` it prints the
valley rows of the starts s = 0..399 (``rosenbrock --seed 0 --runs
400``, default flags), the start set on which the valley's exit mix and
line-search trials are judged; it takes about 20 s on a 2-vCPU AMD
EPYC.  With ``--spd`` it prints the SPD rows of ``spd-contrastive --n 5
--m 5 --r 4 --runs 100 --seed 0`` and of the same flags with ``--n 20
--runs 10``, 220 runs with both algorithms, on which a change to the
SPD kernels is checked; about 8 s on the same machine.
"""

import contextlib
import io
import platform
import sys

import numpy as np

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
    ["verify", "--seed", "0", "--seed", "1", "--seed", "2"],
)

# about 1.6 s together
GOLDEN = (
    ["rosenbrock", "--runs", "2"],
    ["spd-contrastive", "--n", "5", "--m", "5", "--r", "4", "--runs", "1"],
    ["spd-academic", "--n", "4"],
)


VALLEY = (["rosenbrock", "--seed", "0", "--runs", "400"],)

SPD = (
    ["spd-contrastive", "--n", "5", "--m", "5", "--r", "4", "--runs", "100",
     "--seed", "0"],
    ["spd-contrastive", "--n", "20", "--m", "5", "--r", "4", "--runs", "10",
     "--seed", "0"],
)

MODES = {"": INVOCATIONS, "--golden": GOLDEN, "--valley": VALLEY,
         "--spd": SPD}


def build():
    """numpy version, BLAS and LAPACK libraries and machine of this
    process: the last bits of fval and grad_norm may differ between
    builds with no change to the solver."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):       # numpy < 1.25 prints, returns None
        deps = {}
    libs = ", ".join(f"{lib} {deps[lib].get('name', '?')} "
                     f"{deps[lib].get('version', '?')}"
                     for lib in ("blas", "lapack") if lib in deps)
    return f"numpy {np.__version__}, {libs or 'blas/lapack unknown'}, " \
        f"{platform.machine()}"


def rows_without_time(argv):
    """(CSV lines without the time_s column, exit code) of one run; the
    printed lines of a ``verify`` run."""
    out = io.StringIO()
    verify = argv[0] == "verify"
    with contextlib.redirect_stdout(out):
        code = main(argv if verify else argv + ["--algorithm", "both"])
    if verify:
        return out.getvalue().splitlines(), code
    rows = [line.split(",") for line in out.getvalue().splitlines()]
    drop = rows[0].index("time_s") if rows else None
    return [",".join(c for i, c in enumerate(r) if i != drop)
            for r in rows], code


def render(argv):
    """The printed lines of one invocation."""
    lines, code = rows_without_time(argv)
    return ["# hadamard-dc " + " ".join(argv), *lines, f"# exit {code}"]


def run(invocations):
    for argv in invocations:
        print("\n".join(render(argv)))
        sys.stdout.flush()


if __name__ == "__main__":
    mode = " ".join(sys.argv[1:])
    if mode not in MODES:
        sys.exit("usage: python tools/cli_rows.py "
                 "[--golden | --valley | --spd]")
    if mode == "--golden":
        print(f"# build {build()}")
    run(MODES[mode])
