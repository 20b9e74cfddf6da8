#!/bin/sh
# Build the simulator with AddressSanitizer and run the suites that
# exercise the observability stack (event sinks, exporters, interval
# sampler) plus a CLI smoke run that emits a Chrome trace and checks it
# parses as JSON. Catches buffer/lifetime bugs in the writers that
# plain unit tests can miss.
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-asan}

cmake -B "$BUILD_DIR" -S . -DVMSIM_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target base_test obs_test simulator_test trace_test error_test \
    fault_test sweep_resume_test shard_test batch_test check_test \
    check_fuzz multicore_test pressure_test synthetic_test tlb_index_test \
    phys_mem_test pt_intel_test vmsim_cli

"$BUILD_DIR"/tests/base_test
"$BUILD_DIR"/tests/obs_test
"$BUILD_DIR"/tests/simulator_test
# Lent chunk pointers of the prefetch ring must stay inside the mapped
# ring, and a stopped producer must not outlive it.
"$BUILD_DIR"/tests/trace_test
"$BUILD_DIR"/tests/error_test
"$BUILD_DIR"/tests/fault_test
"$BUILD_DIR"/tests/sweep_resume_test
# Fork-heavy crash-tolerance suite: stays out of the TSan script
# (fork + threads is a known TSan blind spot) but is ASan-clean.
"$BUILD_DIR"/tests/shard_test
# Lifetime checks on the zero-copy replay path: lent record
# pointers must stay inside the shared recording. Its SplitBlocks
# suite indexes the back end's memory-op list and walks each block's
# service log by deque cursor.
"$BUILD_DIR"/tests/batch_test
# The Zipf guide table is built by a cursor that walks the CDF without
# a bounds check of its own.
"$BUILD_DIR"/tests/synthetic_test \
    --gtest_filter='ZipfSampler.GuideMatchesBinarySearchConstruction'
# The checker walks event/interval vectors owned by the run's sinks
# and the fuzzer churns trace-cache recordings across four legs per
# tuple — prime heap-lifetime territory.
"$BUILD_DIR"/tests/check_test
"$BUILD_DIR"/tests/check_fuzz
# Per-core TLB/cursor arrays and the shootdown broadcast walk across
# cores — exactly where an off-by-one core index would scribble.
"$BUILD_DIR"/tests/multicore_test
# FramePool recycles slots and frames through free lists while the
# eviction path walks TLBs and page tables — lifetime-bug territory.
"$BUILD_DIR"/tests/pressure_test
"$BUILD_DIR"/tests/tlb_index_test
# PhysMem rebuilds its vpn->frame index at twice the bound when a miss
# finds it full; INTEL's PTE pages live in that index.
"$BUILD_DIR"/tests/phys_mem_test
"$BUILD_DIR"/tests/pt_intel_test

# Smoke test: a fully-instrumented CLI run whose Chrome trace must be
# valid JSON (python3 json.tool is the arbiter when available).
TRACE_DIR=$(mktemp -d)
trap 'rm -rf "$TRACE_DIR"' EXIT
"$BUILD_DIR"/examples/vmsim_cli --instructions=50000 --warmup=10000 \
    --interval=10000 \
    --trace-events="$TRACE_DIR/events.jsonl" \
    --chrome-trace="$TRACE_DIR/trace.json" \
    --stats-json="$TRACE_DIR/stats.json" > /dev/null
test -s "$TRACE_DIR/events.jsonl"
if command -v python3 > /dev/null 2>&1; then
    python3 -m json.tool "$TRACE_DIR/trace.json" > /dev/null
    python3 -m json.tool "$TRACE_DIR/stats.json" > /dev/null
fi

echo "ASan checks passed."
