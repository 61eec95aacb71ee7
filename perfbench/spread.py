"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload valley --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, with the settings of
``BENCHMARK.json``, and prints for each end-to-end metric its median and
the distance between its first and third quartile as a share of the
median, next to the metric's bound.  A spread above a third of the bound
is flagged.  Raw results are appended as JSON lines to ``--log`` if given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--log", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload,
                                 "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if args.log:
            with open(args.log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        spread = quartile_spread(xs) if len(xs) > 1 else 0.0
        flag = "  > bound/3" if spread > metric["bound"] / 3 else ""
        print(f"{metric['name']:<20} median {statistics.median(xs):<12.6g} "
              f"spread {spread:.4f}  bound {metric['bound']}{flag}")


if __name__ == "__main__":
    sys.exit(main())
