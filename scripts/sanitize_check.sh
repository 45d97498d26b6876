#!/usr/bin/env bash
# Builds the asan preset (-fsanitize=address,undefined) and runs the test
# binaries that exercise the concurrency and interpreter layers introduced
# by the parallel engine: support (thread pool, trace, prng), interp, flow
# and the parallel-engine determinism suite; analysis, whose hotspot and
# characterisation tests drive region-focus runs and extracted kernels;
# sema and fission, whose programs the VM must lower safely; and the
# loop-splitting bench, which runs recursively split kernels end to end.
# Then builds the tsan preset
# and runs the in-process fleet (a router over two daemons, each daemon's
# workers sharing one FlowSession), the concurrent daemon suite, the
# flight recorder (writers lapping the ring while a reader snapshots) and
# the trace registry (pool jobs recording into a shared sink, merges).
#
# usage: scripts/sanitize_check.sh [jobs]
set -euo pipefail

JOBS=${1:-$(nproc)}
cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$JOBS"

export ASAN_OPTIONS=detect_leaks=0   # gtest's lazy singletons are not leaks
export UBSAN_OPTIONS=halt_on_error=1

for bin in test_support test_interp test_vm test_analysis test_flow \
           test_engine_parallel test_sema test_fission; do
    echo "== $bin (asan/ubsan) =="
    "build-asan/tests/$bin"
done

echo "== ext_loop_splitting (asan/ubsan) =="
build-asan/bench/ext_loop_splitting > /dev/null

cmake --preset tsan
cmake --build --preset tsan -j "$JOBS" --target test_cluster test_serve \
    test_obs test_support

export TSAN_OPTIONS=halt_on_error=1
echo "== in-process fleet and shared-session daemon (tsan) =="
build-tsan/tests/test_cluster --gtest_filter='Router.*'
build-tsan/tests/test_serve --gtest_filter='Daemon.*'
echo "== flight recorder and trace registry (tsan) =="
build-tsan/tests/test_obs --gtest_filter='Flight.*'
build-tsan/tests/test_support --gtest_filter='Trace.*'

echo "sanitizer check passed"
