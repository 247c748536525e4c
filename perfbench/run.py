#!/usr/bin/env python3
"""Wall-clock admission benchmark for ident++.

Run from the repository root:

    python3 perfbench/run.py --workload identity --seed 1 --seconds 10 --trace 0

Builds the identxx library and the driver (perfbench/driver.cpp) in Release
mode under .bench_build/perfbench, runs one measurement and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (median admission latency and
set-up time, each the figure of the run's least disturbed stretches, see
driver.cpp); --trace 1 reports the per-layer breakdown instead, with the
90th- and 99th-percentile latency pooled over the traced run and its
capacity.  Build logs and diagnostics go to stderr.  Any failure exits
non-zero without printing a result.

Workloads (open loop, 3000 flows/s, see driver.cpp):
  identity       userID/groupID policy, no signatures; 44% of flows allowed
  attest         every flow carries a distinct vendor-signed attestation, so
                 each admission pays a full signature verification
  attest_repeat  the same attestations repeat across clients, so the
                 verifier's memo answers almost every verification
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "admission_driver")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = (
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--parallel", jobs],
    )
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    # Workload and metric names come from the benchmark's own declaration.
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")
    if not os.path.isfile(os.path.join(SOURCE, "driver.cpp")):
        fail("run from the repository root")

    build()
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=args.seconds + 150)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("driver failed: %s" % e)
    if done.returncode != 0:
        fail("driver exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver result is not JSON: " + lines[-1])

    expected = per_layer if args.trace else end_to_end
    metrics = result.get("metrics", {})
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys: %s" % sorted(result))
    if sorted(metrics) != sorted(expected):
        fail("unexpected metrics: %s" % sorted(metrics))
    if result["attempted"] < 1:
        fail("no flow attempted")
    if not args.trace and any(metrics[m]["value"] <= 0 for m in end_to_end):
        fail("an end-to-end metric is not positive: %s" % metrics)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
