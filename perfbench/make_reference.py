"""Write the reference rows of the solver workloads.

    python3 perfbench/make_reference.py --seeds 12

For benchmark seeds 0 .. N-1, runs one pass of ``valley`` and of
``spd-contrastive`` and writes the package's CSV rows without the
``time_s`` column to ``reference/<workload>.csv``.  ``run.py`` counts the
rows of its first pass that differ from these, so that a change which
moves ``k``, ``inn``, ``fval`` or ``grad_norm`` shows on every run.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=12)
    args = parser.parse_args(argv)
    if not run.bootstrap():
        return 2
    import workloads
    run.REFERENCE.mkdir(exist_ok=True)
    for name in ("valley", "spd-contrastive"):
        rows = []
        for seed in range(args.seeds):
            result = workloads.SolverWorkload(name, seed).run_pass()
            rows += result.csv_rows[len(rows) > 0:]
        (run.REFERENCE / f"{name}.csv").write_text("\n".join(rows) + "\n")
        print(f"{name}: {len(rows) - 1} rows for seeds 0..{args.seeds - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
