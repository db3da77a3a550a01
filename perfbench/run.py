#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload opus_256 --seed 1 --seconds 28 --trace 0

Run from the repository root. The driver is configured from
perfbench/CMakeLists.txt (Release) into $CARGO_TARGET_DIR, or .bench_build
when that is unset, and rebuilt incrementally on every call. The workload
runs in a process of its own; its output is relayed and its last line is the
JSON result. The result's metric names are checked against BENCHMARK.json.
Exits non-zero without a result when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# The driver runs a fixed number of repetitions, then fills the rest of
# --seconds with set-up samples; this only guards against a hung simulation.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench_driver",
              "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr so stdout carries only the run.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    expected = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(build_dir)

    # The fleet's baseline sweep is pinned to one thread by the driver; no
    # sweep or debug variable from the caller's shell reaches the run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPUS_")}
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"driver exited with {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(run.stdout)
        fail("driver printed no JSON result")
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or \
            got != want:
        fail("driver result does not match BENCHMARK.json")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
