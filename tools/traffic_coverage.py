"""List the statements of ``src/`` that no benchmark workload executes.

    python3 tools/traffic_coverage.py

The traffic counterpart of ``tools/line_coverage.py``, which asks the
same of the tests.  Runs in this process, from the repository root with
``src`` first on ``sys.path``, under that tool's ``LineTracer``:

* every invocation of ``tools/cli_rows.py`` (``INVOCATIONS``: the nine
  CLI benchmark invocations, each with both outer loops, and ``verify
  --seed 0 --seed 1 --seed 2``), as that tool runs them;
* one pass of the ``kernels`` workload of ``perfbench/workloads.py``
  (imported and not changed, as ``tools/kernel_rows.py`` does) at seed
  1, the seed at which ``tools/same_results.py`` compares the kernel
  rows.

The package is imported under the tracer, so module bodies count.  Then
it prints ``line_coverage.report``: per module, each statement that no
workload ran, and a total.  A statement on that list is input checking,
a numerical edge, or code that nothing the benchmark does needs.  Takes
about 120 s on a 2-vCPU AMD EPYC.  Standard library only, besides what
the workloads import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import line_coverage  # noqa: E402


def workloads():
    """The CLI invocations and the kernels pass, as callables that import
    what they run when called, so that the imports are traced too."""
    def cli():
        import cli_rows
        for argv in cli_rows.INVOCATIONS:
            cli_rows.rows_without_time(argv)

    def kernels():
        from workloads import KernelsWorkload
        KernelsWorkload(1).run_pass()

    return cli, kernels


def main():
    os.chdir(ROOT)
    sys.path[:0] = [str(line_coverage.SRC), str(ROOT / "perfbench")]
    lines = line_coverage.traced(line_coverage.SRC, *workloads())
    print("\n".join(line_coverage.report(lines)))


if __name__ == "__main__":
    main()
