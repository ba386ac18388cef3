#!/usr/bin/env python3
"""Builds the fxrz library and the benchmark driver, then runs one workload.

    python3 perfbench/run.py --workload fastpath_128 --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(Release, the library from src/ plus perfbench/fxrz_perfbench.cc only).
The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics (spans go to .bench_build/perfbench/spans-*.tsv). The
line before it is the provenance stamp (commit, source digest, nproc,
build type, SIMD level, seed, offered rate). Each result is also kept,
stamped, under .bench_build/perfbench/results/.

Exits non-zero without printing a result when the build, the run or the
result check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fxrz_perfbench")
WORKLOADS = ("fastpath_128", "escalate_64", "serve_open_32")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result line has unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result has no attempted requests")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or value != value:
            fail(f"metric {name} is not a number")
    if not trace and not result["correct"]:
        print("perfbench: output checks failed for "
              f"{result['failed']} of {result['attempted']} requests",
              file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(BUILD, f"spans-{tag}.tsv")]
    started = time.time()
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{args.workload} exited with code {done.returncode}")
    try:
        provenance = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        fail("could not parse the driver's output")
    check_result(result, args.trace)
    provenance.update(commit=commit(), source_digest=source_digest(),
                      wall_s=round(time.time() - started, 3))
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump({"provenance": provenance, "result": result}, f, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
