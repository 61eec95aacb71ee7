"""``tools/row_moves.py`` on two small ``tools/cli_rows.py`` outputs."""

from helpers import load_tool

row_moves = load_tool("row_moves")

HEAD = "problem,algorithm,run,seed,k,inn,inn_per_k,fval,grad_norm"

PARENT = """\
# hadamard-dc rosenbrock --runs 2
{head}
r,b,0,0,10,20,2,1e-11,1e-6
r,cr,0,0,11,21,2,2e-11,1e-6
# exit 0
solver stall: stderr of the next invocation
# hadamard-dc spd-contrastive --n 5
{head}
s,b,0,0,94,424,4.5,-1.0,1e-5
s,b,1,1,60,300,5.0,-3.0,1e-5
s,cr,0,0,59,215,3.6,-1.0,1e-5
# exit 0
# hadamard-dc verify --seed 0
[PASS] a: max violation ratio 0.1
[PASS] b: max violation ratio 0.2
# exit 0
""".format(head=HEAD).splitlines()

CHANGE = """\
# hadamard-dc rosenbrock --runs 2
{head}
r,b,0,0,10,20,2,1e-11,1e-6
r,cr,0,0,11,21,2,2e-11,1e-6
# exit 0
# hadamard-dc spd-contrastive --n 5
{head}
s,b,0,0,96,409,4.3,-1.000000001,1e-5
s,b,1,1,60,309,5.2,-3.0,2e-5
s,cr,0,0,26,215,8.3,-1.0,1e-5
# exit 3
# hadamard-dc verify --seed 0
[PASS] a: max violation ratio 0.1
[PASS] b: max violation ratio 0.3
# exit 0
# hadamard-dc spd-academic --n 4
# exit 0
""".format(head=HEAD).splitlines()


def test_row_moves_report():
    """Per invocation: the rows that moved, the worst |delta fval| /
    (1 + |fval|) over them, the ranges of delta k and delta inn over the
    rows of both sides, a changed exit code, and the moved lines of a
    block without CSV rows.  A stderr line after ``# exit`` is not a
    row."""
    assert row_moves.report(PARENT, CHANGE) == [
        "# hadamard-dc rosenbrock --runs 2: 0 of 2 rows moved",
        "# hadamard-dc spd-contrastive --n 5: 3 of 3 rows moved; "
        "worst |dfval|/(1+|fval|) 5e-10, dk [-33, +2], dinn [-15, +9]; "
        "# exit 0 -> # exit 3",
        "# hadamard-dc verify --seed 0: 1 of 2 lines moved",
        "# hadamard-dc spd-academic --n 4: missing from parent",
    ]


def test_row_moves_names_rows_of_one_side():
    parent = ["# hadamard-dc x", HEAD, "r,b,0,0,1,2,2,0.5,0", "# exit 0"]
    change = ["# hadamard-dc x", HEAD, "r,b,1,1,1,2,2,0.5,0", "# exit 0"]
    assert row_moves.report(parent, change) == [
        "# hadamard-dc x: 0 of 0 rows moved; rows only in parent 1, "
        "only in change 1"]
    assert row_moves.report(parent, []) == [
        "# hadamard-dc x: missing from change"]
