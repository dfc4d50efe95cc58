"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 tools/ab_bench.py PARENT CHANGE --workload simplex_sequence \
        [--pairs 10] [--seed 101]

PARENT and CHANGE are two checkouts of this repository (for example a
`git archive` of the parent commit and the working tree).  Pair k runs
`bench/run.py --trace 0` on seed S + k in both, one after the other, for
the bench's own run length; the checkout that goes first alternates from
pair to pair, so a drift of the machine's speed reaches both alike.  Each
run's last output line is the bench's JSON result, and a run that fails,
or reports an incorrect output, stops the comparison.

One line is printed per pair with every end-to-end metric of both runs.
Then, per metric: how many pairs the change won (lower is better, except
for the metrics per second), the median of the change-to-parent ratios, the
parent's median and its quartile spread (the distance between the upper
and lower quartile of the parent's runs).  A claimed gain should win
nearly every pair and move the median by more than that spread.

The script uses the standard library alone, only reads the two checkouts,
and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_bench(checkout, workload, seed):
    """The metrics of one `bench/run.py --trace 0` run in checkout, as a dict
    of name -> value."""
    cmd = [sys.executable, os.path.join(checkout, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{checkout}: {result['failed']} of {result['attempted']} operations failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartile_spread(values):
    """The upper minus the lower quartile; 0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def higher_is_better(metric):
    return metric.endswith("per_s")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=101, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_bench(checkout, args.workload, seed))
        a, b = runs["parent"][-1], runs["change"][-1]
        cells = "  ".join(f"{name} {a[name]:.4g} -> {b[name]:.4g}" for name in a)
        print(f"pair {k + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs, change against parent")
    for name in runs["parent"][0]:
        before = [r[name] for r in runs["parent"]]
        after = [r[name] for r in runs["change"]]
        better = higher_is_better(name)
        won = sum((b > a) if better else (b < a) for a, b in zip(before, after))
        ratio = statistics.median(b / a for a, b in zip(before, after) if a)
        print(f"  {name:14s} won {won} of {args.pairs}  median ratio {ratio:.4f}  "
              f"parent median {statistics.median(before):.4g}  "
              f"change median {statistics.median(after):.4g}  "
              f"parent quartile spread {quartile_spread(before):.4g}")


if __name__ == "__main__":
    main()
