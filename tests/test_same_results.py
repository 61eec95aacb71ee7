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


def test_src_statements_counts_the_statements_of_every_module(tmp_path):
    """Each tree's count is the sum over its ``.py`` files, nested ones
    included, of the statements ``line_coverage`` lists: a docstring or
    a comment is not one."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "pkg").mkdir(parents=True)
    change.mkdir()
    (parent / "a.py").write_text('"""Doc."""\nimport math\nX = 1\n')
    (parent / "pkg" / "b.py").write_text("def f():\n    return 2\n")
    (parent / "notes.txt").write_text("x = 1\n")
    (change / "a.py").write_text('"""Doc."""\n# X = 1\nimport math\n')
    assert same_results.src_statements(parent) == 3
    assert same_results.src_statements(change) == 1


def test_spd_rows_are_a_mode_of_both_tools():
    """``--spd`` compares the rows of ``cli_rows.py --spd``: 100 runs of
    the benchmark's SPD(5) instance and 10 at n = 20, both algorithms."""
    cli_rows = load_tool("cli_rows")
    assert same_results.SPD == ("cli_rows --spd",
                                ["tools/cli_rows.py", "--spd"], True)
    flags = ["--m", "5", "--r", "4"]
    assert cli_rows.MODES["--spd"] == (
        ["spd-contrastive", "--n", "5", *flags, "--runs", "100",
         "--seed", "0"],
        ["spd-contrastive", "--n", "20", *flags, "--runs", "10",
         "--seed", "0"])


BENCH_OUTPUT = """\
.....F..E                                                        [100%]
==================================== ERRORS ====================================
_________________________ ERROR at setup of test_setup _________________________
{root}/perfbench/tests/test_b.py:12: ValueError: no fixture
=================================== FAILURES ===================================
E   AssertionError: assert 'norm' not in mappingproxy({{'f': <function at {addr}>}})
     +  where mappingproxy({{'f': <function at {addr}>}}) = vars(<class 'M'>)
{root}/perfbench/tests/test_a.py:91: AssertionError: assert 'norm' not in ...
==================================== PASSES ====================================
=========================== short test summary info ============================
PASSED perfbench/tests/test_a.py::test_one
PASSED perfbench/tests/test_a.py::test_two[10]
FAILED perfbench/tests/test_a.py::test_three - AssertionError: assert...
ERROR perfbench/tests/test_b.py::test_setup - ValueError: no fixture
SKIPPED [1] perfbench/tests/test_b.py:30: no scipy
1 failed, 2 passed, 1 skipped, 1 error in {seconds}s
"""


def test_bench_test_outcomes_keep_outcomes_and_locations_only():
    """Each test's outcome, and a failure's or an error's ``file:line``
    relative to its tree, sorted by test: the reprs (with their
    addresses) and the timing are dropped, so two runs of the same tree
    in two directories give the same lines."""
    want = [
        "perfbench/tests/test_a.py::test_one passed",
        "perfbench/tests/test_a.py::test_three failed at "
        "perfbench/tests/test_a.py:91",
        "perfbench/tests/test_a.py::test_two[10] passed",
        "perfbench/tests/test_b.py:30 skipped",
        "perfbench/tests/test_b.py::test_setup error at "
        "perfbench/tests/test_b.py:12",
    ]
    for root, addr, seconds in (("/x/parent", "0x7f39a6ff4860", "3.20"),
                                ("/y/change", "0x7f65467d4720", "4.39")):
        output = BENCH_OUTPUT.format(root=root, addr=addr, seconds=seconds)
        assert same_results.pytest_outcomes(output, root) == want


def test_a_moved_failure_is_the_one_difference():
    """The benchmark tests' report names a failure that moved to another
    line of its test, and nothing else."""
    parent = BENCH_OUTPUT.format(root="/p", addr="0x1", seconds="1")
    change = parent.replace("/p/", "/c/").replace("test_a.py:91:",
                                                  "test_a.py:107:")
    assert same_results.compare(same_results.pytest_outcomes(parent, "/p"),
                                same_results.pytest_outcomes(change, "/c")) \
        == ["first difference, line 2:",
            "  parent: perfbench/tests/test_a.py::test_three failed at "
            "perfbench/tests/test_a.py:91",
            "  change: perfbench/tests/test_a.py::test_three failed at "
            "perfbench/tests/test_a.py:107"]
    assert same_results.BENCH_TESTS == (
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=line", "-rA",
        "perfbench/tests")
