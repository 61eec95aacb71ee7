"""The non-time CSV columns of three quick CLI invocations, against the
rows committed in ``tests/data/golden_rows.txt``.

The file is what ``tools/cli_rows.py --golden`` prints: a ``# build``
line naming the numpy and BLAS/LAPACK build that wrote it, then the
rows.  Every compared column is a deterministic function of the flags
on one build, so any change to k, inn, fval or grad_norm fails here; a
change that moves rows on purpose rewrites the file (see
``tools/cli_rows.py``) and says which rows moved and why.  Another BLAS
or CPU dispatch path may move the last bits of fval and grad_norm with
no solver change, so a failure names both builds.
"""

from pathlib import Path

from helpers import assert_golden, load_tool

ROOT = Path(__file__).resolve().parent.parent
cli_rows = load_tool("cli_rows")


def test_golden_rows_unchanged():
    assert_golden(ROOT / "tests" / "data" / "golden_rows.txt",
                  [line for argv in cli_rows.GOLDEN
                   for line in cli_rows.render(argv)],
                  "golden rows", "the solver's results")
