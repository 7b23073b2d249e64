#!/usr/bin/env python3
"""Builds perfbench from source, runs one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library into .bench_build/ (later runs only check that the
build is current). The last line of standard output is the benchmark's JSON
result; it is printed only when the run passed every output check and its
metrics match the names and units BENCHMARK.json declares for the mode
(end_to_end for --trace 0, per_layer for --trace 1). Any failure exits
non-zero without a result line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# The benchmark itself stops well before this; the cap only guards a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"[run.py] {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then brings the perfbench target up to date."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace == 1 else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}, [w["name"] for w in spec["workloads"]]


def validate(line, expected):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail("the run failed its output checks")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number")
        if entry.get("unit") != expected[name]:
            fail(f"{name} has unit {entry.get('unit')}, BENCHMARK.json says {expected[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected, workloads = declared_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json lists {workloads}")
    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        fail(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the benchmark exited with code {run.returncode}")
    validate(lines[-1], expected)
    print(lines[-1])


if __name__ == "__main__":
    main()
