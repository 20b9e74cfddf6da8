#!/bin/sh
# Reproduce every table/figure of the paper plus the ablations and
# extensions, writing one output file per experiment into results/.
#
# Usage: scripts/reproduce_all.sh [build-dir] [extra bench args...]
#   e.g. scripts/reproduce_all.sh build --full --instructions=5000000
#
# The default (reduced-grid) run finishes in a few minutes on one core;
# --full runs the complete Table-1 cross-product.

set -eu

BUILD="${1:-build}"
shift 2>/dev/null || true
OUT="results"

if [ ! -d "$BUILD/bench" ]; then
    echo "error: '$BUILD/bench' not found; build first:" >&2
    echo "  cmake -B $BUILD -G Ninja && cmake --build $BUILD" >&2
    exit 1
fi

mkdir -p "$OUT"

# One file per entry of the table of figures (vmsim_bench --list)...
for figure in $("$BUILD/bench/vmsim_bench" --list | cut -d' ' -f1); do
    echo "== $figure"
    "$BUILD/bench/vmsim_bench" --figure="$figure" "$@" \
        > "$OUT/$figure.txt" 2>&1
done

# ...and one per standalone bench binary.
for name in bench_pressure bench_multicore bench_micro; do
    echo "== $name"
    if [ "$name" = "bench_micro" ]; then
        "$BUILD/bench/$name" > "$OUT/$name.txt" 2>&1
    else
        "$BUILD/bench/$name" "$@" > "$OUT/$name.txt" 2>&1
    fi
done

echo "done: $(ls "$OUT" | wc -l) experiment outputs in $OUT/"
