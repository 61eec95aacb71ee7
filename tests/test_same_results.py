"""``tools/same_results.py`` on small in-memory outputs."""

from helpers import load_tool

same_results = load_tool("same_results")

HEAD = "problem,algorithm,run,seed,k,inn,inn_per_k,fval,grad_norm"

PARENT = """\
# build numpy 2
# hadamard-dc rosenbrock --runs 2
{head}
r,b,0,0,10,20,2,1e-11,1e-6
r,cr,0,0,11,21,2,2e-11,1e-6
# exit 0
# hadamard-dc verify --seed 0
[PASS] a: max violation ratio 0.1
# exit 0
""".format(head=HEAD).splitlines()


def test_same_outputs_report_nothing():
    assert same_results.compare(PARENT, list(PARENT), rows=True) == []
    assert same_results.compare([], []) == []


def test_moved_rows_report_the_move_and_the_first_difference():
    """Only the invocations that moved are reported, then the first line
    that differs."""
    change = list(PARENT)
    change[4] = "r,cr,0,0,12,21,2,2e-11,1e-6"
    assert same_results.compare(PARENT, change, rows=True) == [
        "# hadamard-dc rosenbrock --runs 2: 1 of 2 rows moved; "
        "worst |dfval|/(1+|fval|) 0, dk [+0, +1], dinn [+0, +0]",
        "first difference, line 5:",
        "  parent: r,cr,0,0,11,21,2,2e-11,1e-6",
        "  change: r,cr,0,0,12,21,2,2e-11,1e-6",
    ]


def test_a_difference_outside_the_rows_is_still_reported():
    """A line no invocation owns (the ``# build`` line), or an output that
    ends early, is named by the first difference alone."""
    change = ["# build numpy 3", *PARENT[1:]]
    assert same_results.compare(PARENT, change, rows=True) == [
        "first difference, line 1:",
        "  parent: # build numpy 2",
        "  change: # build numpy 3",
    ]
    assert same_results.compare(["a", "b"], ["a"]) == [
        "first difference, line 2:",
        "  parent: b",
        "  change: <end of output>",
    ]
