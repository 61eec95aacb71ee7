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

from helpers import load_tool

ROOT = Path(__file__).resolve().parent.parent
cli_rows = load_tool("cli_rows")


def test_golden_rows_unchanged():
    recorded, *want = (ROOT / "tests" / "data" / "golden_rows.txt") \
        .read_text().splitlines()
    assert recorded.startswith("# build ")
    got = [line for argv in cli_rows.GOLDEN for line in cli_rows.render(argv)]
    if got == want:
        return
    i = next((i for i, (w, g) in enumerate(zip(want, got)) if w != g),
             min(len(want), len(got)))
    raise AssertionError(
        f"golden rows differ first at data line {i + 1}:\n"
        f"  want {want[i] if i < len(want) else '<end of file>'}\n"
        f"  got  {got[i] if i < len(got) else '<end of output>'}\n"
        f"file written by: {recorded[len('# build '):]}\n"
        f"this build:      {cli_rows.build()}\n"
        "same build: the solver's results moved; another build: the "
        "platform may move the last bits")
