#!/bin/sh
# Regenerates every paper artifact: builds, runs the full test suite
# (including the exact Figure 1-15 reproductions) and every benchmark
# binary. Outputs land in test_output.txt / bench_output.txt at the
# repository root. See DESIGN.md Section 3 for the experiment index
# and EXPERIMENTS.md for recorded paper-vs-measured outcomes.
set -e
cd "$(dirname "$0")/.."
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build 2>&1 | tee test_output.txt
# The google-benchmark binaries also dump the metric registry as
# JSON (BENCH_<name>.json at the repo root); the other table
# binaries only print text.
for b in build/bench/bench_*; do
  name=$(basename "$b")
  case "$name" in
    bench_query_scaling|bench_update_scaling|bench_kernels|bench_durable)
      "$b" --metrics-json "BENCH_${name#bench_}.json" ;;
    *)
      "$b" ;;
  esac
done 2>&1 | tee bench_output.txt
