#!/usr/bin/env python3
"""bench_diff — compare two google-benchmark JSON snapshots.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json

Matches benchmarks by name.  A benchmark run with repetitions is summarised
by its `_median` aggregate, or by the mean of its repetitions when the file
carries no median; a single run stands for itself.  Prints one line per
benchmark present in both files with the candidate/baseline ratio of CPU
time (above 1 is slower), and lists the names only one side has.

Exits 1 when any shared benchmark is more than 10% slower in the candidate,
0 otherwise, and 2 when a file cannot be read.  The threshold is fixed:
snapshots from different runs of a noisy host need a margin, and the
script is meant to flag a regression for a human to look at, not to gate.
"""

import json
import sys

THRESHOLD = 1.10

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Name -> CPU time in ns, one figure per benchmark."""
    with open(path) as f:
        entries = json.load(f)["benchmarks"]
    aggregates = {"mean": {}, "median": {}}
    repetitions = {}
    for e in entries:
        ns = e["cpu_time"] * TO_NS[e.get("time_unit", "ns")]
        if e.get("run_type") == "aggregate":
            if e.get("aggregate_name") in aggregates:
                aggregates[e["aggregate_name"]][e["run_name"]] = ns
            continue
        repetitions.setdefault(e.get("run_name", e["name"]), []).append(ns)
    times = dict(aggregates["mean"])
    times.update({n: sum(v) / len(v) for n, v in repetitions.items()})
    times.update(aggregates["median"])
    return times


def main(argv):
    if len(argv) != 3:
        print("usage: bench_diff.py BASELINE.json CANDIDATE.json",
              file=sys.stderr)
        return 2
    try:
        base = load(argv[1])
        cand = load(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print("bench_diff: cannot read snapshot: %s" % e, file=sys.stderr)
        return 2
    shared = [name for name in base if name in cand]
    slower = []
    width = max([len(n) for n in shared] + [9])
    print("%-*s %14s %14s %7s" % (width, "benchmark", "baseline ns",
                                   "candidate ns", "ratio"))
    for name in shared:
        ratio = cand[name] / base[name] if base[name] > 0 else float("inf")
        flag = ""
        if ratio > THRESHOLD:
            slower.append(name)
            flag = "  SLOWER"
        print("%-*s %14.1f %14.1f %7.3f%s" % (width, name, base[name],
                                              cand[name], ratio, flag))
    for name in base:
        if name not in cand:
            print("only in baseline:  %s" % name)
    for name in cand:
        if name not in base:
            print("only in candidate: %s" % name)
    if slower:
        print("%d benchmark(s) more than %d%% slower: %s" %
              (len(slower), round((THRESHOLD - 1) * 100), ", ".join(slower)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
