"""Alternating pairs of benchmark runs: a parent checkout against this tree.

    mkdir /tmp/parent && git archive <parent commit> | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py --parent /tmp/parent \\
        --workload spd-contrastive --seeds 31 32 33 34 35 36 37 38 39 40

For each seed, runs ``perfbench/run.py --trace 0`` once in the parent
checkout and once in this tree, one run at a time, with the run length
of this tree's ``BENCHMARK.json``.  Which side runs first alternates
from pair to pair, so that a slow spell of a shared machine does not
always fall on one side.  Prints each run as it ends, then the share of
failed operations per side, and for each end-to-end metric of
``BENCHMARK.json`` the median and quartiles per side, the change of the
medians, the pairs the change won (ties count for neither side), and
whether a gain may be claimed: at least nine tenths of the pairs won,
the medians apart by more than the distance between the parent's
quartiles, and no larger share of failed operations than the parent's.
Then, from the ``#`` lines ``run.py`` prints (``N passes in T s, S
steps`` and, on the solver workloads, ``per pass: outer_iters ...,
inner_iters ...``), the median passes per run and outer and inner
iterations per pass per side, and ``s_per_pass`` (T / N, wall seconds,
not scaled to the reference speed) in the same form as a metric, not
gated: a change that moves the number of outer steps is judged per
solve as well as per step.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = re.compile(r"# (\d+) passes in ([0-9.]+) s, ")
PER_PASS = re.compile(r"# per pass: outer_iters (\d+), inner_iters (\d+)")


def quartiles(xs):
    """(first quartile, median, third quartile) of a non-empty sample,
    by linear interpolation between the closest ranks."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def pass_figures(lines):
    """{"passes", "s_per_pass"} from the ``N passes in T s`` line of a
    run's output, and {"outer_per_pass", "inner_per_pass"} from its ``per
    pass`` line where it prints one."""
    out = {}
    for line in lines:
        if m := PASSES.match(line):
            out["passes"] = int(m[1])
            out["s_per_pass"] = float(m[2]) / int(m[1])
        elif m := PER_PASS.match(line):
            out["outer_per_pass"], out["inner_per_pass"] = int(m[1]), int(m[2])
    return out


def run_once(checkout, spec, workload, seed):
    """The result object ``run.py`` prints last, run in ``checkout``, with
    its ``pass_figures`` under "per_pass"."""
    cmd = [sys.executable if part in ("python", "python3") else part
           for part in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=30 * spec["run_seconds"] + 600, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["per_pass"] = pass_figures(lines)
    return result


def summary(metric, parent, change, fails_fewer):
    """One line for one end-to-end metric over the paired runs;
    ``fails_fewer`` is whether the change fails no larger share of
    operations than the parent."""
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gained = (cm < pm) if lower else (cm > pm)
    claim = 10 * wins >= 9 * len(parent) and gained \
        and abs(cm - pm) > p3 - p1 and fails_fewer
    rel = (cm - pm) / pm if pm else float("nan")
    bound = metric.get("bound", "none, not gated")
    return (f"{metric['name']:<16} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {100 * rel:+.1f}%  "
            f"won {wins}/{len(parent)}  gain {'yes' if claim else 'no'}  "
            f"(bound {bound})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": ROOT}
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"--parent {args.parent}: no perfbench/run.py there")

    values = {"parent": {}, "change": {}}
    ops = {side: {"failed": 0, "attempted": 0} for side in sides}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], spec, args.workload, seed)
            for key in ops[side]:
                ops[side][key] += result[key]
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
            for name, value in result["per_pass"].items():
                values[side].setdefault(name, []).append(value)
            shown = ", ".join(
                f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"])
            print(f"seed {seed} {side:<6} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  "
                  f"{shown}", flush=True)
    share = {side: o["failed"] / o["attempted"] if o["attempted"] else 0.0
             for side, o in ops.items()}
    print(f"failed share     parent {share['parent']:.6g}  "
          f"change {share['change']:.6g}")
    fails_fewer = share["change"] <= share["parent"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(summary(metric, values["parent"][name], values["change"][name],
                      fails_fewer))
    for name in ("passes", "outer_per_pass", "inner_per_pass"):
        if name in values["parent"] and name in values["change"]:
            print(f"{name:<16} median parent "
                  f"{statistics.median(values['parent'][name]):.6g}  change "
                  f"{statistics.median(values['change'][name]):.6g}")
    if "s_per_pass" in values["parent"] and "s_per_pass" in values["change"]:
        print(summary({"name": "s_per_pass", "better": "lower"},
                      values["parent"]["s_per_pass"],
                      values["change"]["s_per_pass"], fails_fewer))
    return 0


if __name__ == "__main__":
    sys.exit(main())
