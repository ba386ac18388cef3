#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports how steady it is.

    python3 perfbench/steadiness.py --workload escalate_64 --seeds 1-10

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json, and marks
metrics whose spread is not below a third of the bound. Run from the
repository root; each run goes through perfbench/run.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"seed {seed}: run failed\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        result = run(args.workload, seed, bench["run_seconds"])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              file=sys.stderr)

    print(f"| {args.workload} | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < bounds[name] / 3 else " (!)"
        print(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | "
              f"{spread:.3f}{flag} | {bounds[name]} |")


if __name__ == "__main__":
    main()
