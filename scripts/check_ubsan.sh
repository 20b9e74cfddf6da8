#!/bin/sh
# Build the simulator with UndefinedBehaviorSanitizer and run the
# suites that push the robustness machinery hardest: structured error
# paths, fault injection, checkpoint/resume, and the trace codec.
# Catches integer overflows, misaligned loads, and invalid enum casts
# (e.g. a corrupt trace op byte) that plain unit tests can miss.
#
# Usage: scripts/check_ubsan.sh [build-dir]   (default: build-ubsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build-ubsan}

cmake -B "$BUILD_DIR" -S . -DVMSIM_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target error_test fault_test sweep_resume_test trace_test \
    sim_config_test check_fuzz base_test batch_test check_test \
    shard_test synthetic_test pressure_test tlb_index_test vmsim_cli

# halt_on_error turns any UB report into a nonzero exit so set -eu
# fails the script instead of scrolling past a diagnostic.
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
export UBSAN_OPTIONS

"$BUILD_DIR"/tests/error_test
"$BUILD_DIR"/tests/fault_test
"$BUILD_DIR"/tests/sweep_resume_test
"$BUILD_DIR"/tests/trace_test
"$BUILD_DIR"/tests/sim_config_test
# The fuzzer's counter arithmetic and the fault tuples' error paths
# run under the same integer/enum strictness.
"$BUILD_DIR"/tests/check_fuzz
# Both CRC32 paths (the carry-less-multiply kernel's lane loads and the
# table loop's shifts), and chunk verification of shared recordings.
"$BUILD_DIR"/tests/base_test
"$BUILD_DIR"/tests/batch_test
# Cross-cell VM law over a cache-geometry grid; the damaged-log set
# (per-core sums checked on decode, header fields checked on open);
# the Zipf guide cursor.
"$BUILD_DIR"/tests/check_test \
    --gtest_filter='CacheIndependence.*:StackInclusion.*'
"$BUILD_DIR"/tests/pressure_test \
    --gtest_filter='FramePool*:SimConfigRegression.*'
"$BUILD_DIR"/tests/tlb_index_test
"$BUILD_DIR"/tests/shard_test \
    --gtest_filter='Shard.MidFileCorruptionIsAnIntegrityError'
"$BUILD_DIR"/tests/synthetic_test \
    --gtest_filter='ZipfSampler.GuideMatchesBinarySearchConstruction'

# Smoke test: a fault-injected CLI run must fail cleanly (exit 1 with
# a structured diagnostic), not trip UBSan or abort.
if "$BUILD_DIR"/examples/vmsim_cli --instructions=50000 \
    --inject-faults=corrupt=1.0,seed=7 > /dev/null 2>&1; then
    echo "expected fault-injected run to exit nonzero" >&2
    exit 1
fi

echo "UBSan checks passed."
