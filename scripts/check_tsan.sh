#!/bin/sh
# Build the simulator with ThreadSanitizer and run the concurrency-
# sensitive test suites (thread pool, sweep engine, trace prefetcher)
# plus a small parallel bench sweep. Catches data races in the
# SweepRunner / ThreadPool / Logger / PrefetchedTrace stack that plain
# unit tests can miss.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-tsan}

cmake -B "$BUILD_DIR" -S . -DVMSIM_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target thread_pool_test sweep_test fault_test sweep_resume_test \
    batch_test check_fuzz multicore_test obs_test pressure_test \
    trace_test simulator_test vmsim_bench

"$BUILD_DIR"/tests/thread_pool_test
# sweep_test's graceful-drain cases raise SIGINT while pool workers
# poll the shutdown flag as their cancel token.
"$BUILD_DIR"/tests/sweep_test
# The fault/resume suites drive the retry loop, per-cell outcomes and
# the journal mutex.
"$BUILD_DIR"/tests/fault_test
"$BUILD_DIR"/tests/sweep_resume_test
# PrefetchedTrace hands chunks between its producer thread and the
# consumer through release/acquire counters and atomic waits; trace_test
# drives the ring through every access path, errors and shutdown, and
# simulator_test runs prefetched cells against bare ones.
"$BUILD_DIR"/tests/trace_test
"$BUILD_DIR"/tests/simulator_test
# batch_test hammers the TraceCache from concurrent sweep workers
# (promise/shared_future publication, budget accounting under the
# mutex) — the shared-recording paths TSan exists to check.
"$BUILD_DIR"/tests/batch_test
# The fuzzer's cached leg shares TraceCache recordings exactly like
# parallel sweep workers do.
"$BUILD_DIR"/tests/check_fuzz
# Multicore cells run inside parallel sweep workers; simulated cores
# share one VmSystem per worker, so TSan proves the sharing stops at
# the cell boundary.
"$BUILD_DIR"/tests/multicore_test
# Budgeted cells evict and shoot down across simulated cores inside
# parallel workers; the equivalence legs also share the TraceCache.
"$BUILD_DIR"/tests/pressure_test
# obs_test spins up the SweepTelemetry emitter thread against the
# per-worker atomic progress slots.
"$BUILD_DIR"/tests/obs_test
# --progress runs the telemetry thread concurrently with real sweep
# workers publishing through their slots.
"$BUILD_DIR"/bench/vmsim_bench --figure=mcpi_sweep --instructions=20000 \
    --warmup=5000 --jobs=4 --check --progress=0.1 \
    --progress-out="$BUILD_DIR/tsan_progress.jsonl" > /dev/null

# Without --check the cells share front ends: sibling cells replay
# the log one member records, published under the runner's mutex.
"$BUILD_DIR"/bench/vmsim_bench --figure=fig6_vmcpi_gcc --instructions=20000 \
    --warmup=5000 --jobs=4 > /dev/null

echo "TSan checks passed."
