#!/usr/bin/env bash
# bench_snapshots — build the six google-benchmark suites in Release, run
# them, and write BENCH_crypto.json, BENCH_flow_setup.json,
# BENCH_policy_eval.json, BENCH_traffic.json, BENCH_faults.json and
# BENCH_flow_table.json.
#
# Usage (from anywhere in the checkout):
#   tools/bench_snapshots.sh [--repetitions N] [--min-time SECONDS]
#                            [--cpu CPULIST] [--build-dir DIR]
#                            [--out-dir DIR] [--jobs N]
#
#   --repetitions N     --benchmark_repetitions (default 5)
#   --min-time SECONDS  --benchmark_min_time as a bare number (default 0.5)
#   --cpu CPULIST       run every suite under `taskset -c CPULIST`
#                       (default: unpinned)
#   --build-dir DIR     Release build tree (default: build-bench)
#   --out-dir DIR       where the JSON goes (default: the repo root, i.e.
#                       the committed snapshots)
#   --jobs N            build parallelism (default: 2)
#
# Every file carries the same context keys next to google-benchmark's own
# (num_cpus, mhz_per_cpu, caches, ...): git_sha (short SHA, "-dirty" when
# tracked files differ from it), compiler, build_type and cpu_pin ("none"
# when unpinned).  A suite's file is replaced only when its run succeeds.
# Compare two snapshots with tools/bench_diff.py.

set -euo pipefail

suites=(crypto flow_setup policy_eval traffic faults flow_table)

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
repetitions=5
min_time=0.5
cpu=""
build_dir="$root/build-bench"
out_dir="$root"
jobs=2

usage() {
  sed -n '2,/^$/{s/^# \{0,1\}//;p}' "$0" >&2
  exit 1
}

while [[ $# -gt 0 ]]; do
  [[ $# -ge 2 ]] || usage
  case "$1" in
    --repetitions) repetitions=$2 ;;
    --min-time) min_time=$2 ;;
    --cpu) cpu=$2 ;;
    --build-dir) build_dir=$2 ;;
    --out-dir) out_dir=$2 ;;
    --jobs) jobs=$2 ;;
    *) usage ;;
  esac
  shift 2
done

generator=()
if command -v ninja > /dev/null; then generator=(-G Ninja); fi
cmake -B "$build_dir" -S "$root" "${generator[@]}" \
  -DCMAKE_BUILD_TYPE=Release -DIDENTXX_BENCH=ON > /dev/null
cmake --build "$build_dir" -j "$jobs" --target "${suites[@]/#/bench_}"

build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "$build_dir/CMakeCache.txt")
compiler_id=$(sed -n 's/^set(CMAKE_CXX_COMPILER_ID "\(.*\)")$/\1/p' \
  "$build_dir"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)
compiler_version=$(sed -n 's/^set(CMAKE_CXX_COMPILER_VERSION "\(.*\)")$/\1/p' \
  "$build_dir"/CMakeFiles/*/CMakeCXXCompiler.cmake | head -n 1)
case "$compiler_id" in
  GNU) compiler="g++-$compiler_version" ;;
  Clang) compiler="clang++-$compiler_version" ;;
  *) compiler="$compiler_id-$compiler_version" ;;
esac
git_sha=$(git -C "$root" rev-parse --short HEAD)
git -C "$root" diff --quiet HEAD -- || git_sha="$git_sha-dirty"

pin=()
if [[ -n "$cpu" ]]; then pin=(taskset -c "$cpu"); fi
context="git_sha=$git_sha,compiler=$compiler,build_type=$build_type"
# The context flag splits on commas, so a CPU list records as "2+3".
cpu_pin=${cpu:-none}
context="$context,cpu_pin=${cpu_pin//,/+}"

mkdir -p "$out_dir"
trap 'rm -f "$out_dir"/BENCH_*.json.tmp' EXIT
for suite in "${suites[@]}"; do
  out="$out_dir/BENCH_$suite.json"
  echo "bench_$suite -> $out" >&2
  # Run from the build tree so the recorded executable is ./bench_<suite>.
  (cd "$build_dir" && "${pin[@]}" "./bench_$suite" \
    --benchmark_format=json \
    --benchmark_repetitions="$repetitions" \
    --benchmark_min_time="$min_time" \
    --benchmark_context="$context") > "$out.tmp"
  mv "$out.tmp" "$out"
done
