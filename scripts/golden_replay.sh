#!/bin/sh
# Byte-identity manifest for the replay hot path (docs/checking.md,
# DESIGN.md "Hot-path data layout").  Runs every organization at cores
# {1,2,4} under a fixed adversarial config (context switches, ASID
# tagging, L2 TLB, interval sampling, latency collection) and prints a
# sha256 line per (org, cores) covering the summary JSON, the stats
# dump (counters + interval series + latency histograms), and the full
# event stream, then a "sampler" line for the same run without an event
# sink (summary + stats only).  Two more rows per organization at one
# core run the same config through a 2-way LRU hierarchy and through a
# unified L2 (the cache paths the paper's direct-mapped split caches
# never take), with an 8 KB L1 and 32 KB L2 so that L2 conflicts
# actually occur in 10K instructions.  The last rows run the other five
# workloads (vortex, ijpeg and the stream, chase and uniform
# diagnostics) through three organizations at one core, so every
# synthetic generator kind is pinned, not just gcc's.  The final three
# rows run vortex for 2M instructions through a software-, a
# hardware-walked and an inverted-table organization, long enough that
# TLB reuse distances and lifetimes above 10^4 probes land and the
# upper residency buckets are pinned too.  The budget rows run a
# software-, a hardware-walked and a hashed-table organization at four
# cores under a 1 MB frame budget with LRU and CLOCK reclaim and a
# 32-entry TLB, so TLB invalidation by page eviction, shootdown
# receipts and ASID-switch evictRandom churn are pinned too (about
# 2,000 evictions and 6,500 shootdown receipts per ULTRIX run).  Every
# row so far attaches an observer (--stats-json brings a latency
# collector), so the summary-only rows last run the same budget config
# for the six TLB organizations at one and four cores with neither
# --stats-json nor --trace-events: no observer attaches, and the run
# splits its budgeted blocks into a cache-free front end, which meets
# every eviction in scalar order, and the back end.
# ci.sh cmp's the output against the committed
# tests/golden/replay_sha256.txt: any refactor that changes a single
# output byte — one counter, one event, one interval sample — fails
# the gate.  Regenerate the golden (only when an *intentional*
# behavior change lands) with:
#     scripts/golden_replay.sh > tests/golden/replay_sha256.txt
#
# Usage: scripts/golden_replay.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD=${1:-build}
CLI="$BUILD/examples/vmsim_cli"
[ -x "$CLI" ] || { echo "golden_replay: $CLI not built" >&2; exit 1; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

sum() { sha256sum "$1" | cut -d' ' -f1; }

for sys in ULTRIX MACH INTEL PA-RISC NOTLB BASE HW-INVERTED HW-MIPS SPUR; do
    for cores in 1 2 4; do
        "$CLI" --system="$sys" --cores="$cores" \
            --instructions=10000 --warmup=2000 --interval=2500 \
            --ctx-switch=997 --asid-bits=6 --l2-tlb=64 --json \
            --stats-json="$TMP/stats.json" \
            --trace-events="$TMP/events.jsonl" \
            > "$TMP/summary.json"
        printf '%s cores=%s summary=%s stats=%s events=%s\n' \
            "$sys" "$cores" \
            "$(sum "$TMP/summary.json")" \
            "$(sum "$TMP/stats.json")" \
            "$(sum "$TMP/events.jsonl")"
        # Sampler-only row: interval sampling without an event sink
        # (the `--check --interval` shape), which takes a different
        # batched path than the fully observed run above.
        "$CLI" --system="$sys" --cores="$cores" \
            --instructions=10000 --warmup=2000 --interval=2500 \
            --ctx-switch=997 --asid-bits=6 --l2-tlb=64 --json \
            --stats-json="$TMP/stats.json" \
            > "$TMP/summary.json"
        printf '%s cores=%s sampler summary=%s stats=%s\n' \
            "$sys" "$cores" \
            "$(sum "$TMP/summary.json")" \
            "$(sum "$TMP/stats.json")"
    done
done

for sys in ULTRIX MACH INTEL PA-RISC NOTLB BASE HW-INVERTED HW-MIPS SPUR; do
    for cache in --assoc=2 --unified-l2; do
        "$CLI" --system="$sys" --cores=1 "$cache" --l1=8192 --l2=32768 \
            --instructions=10000 --warmup=2000 --interval=2500 \
            --ctx-switch=997 --asid-bits=6 --l2-tlb=64 --json \
            --stats-json="$TMP/stats.json" \
            --trace-events="$TMP/events.jsonl" \
            > "$TMP/summary.json"
        printf '%s cores=1 %s summary=%s stats=%s events=%s\n' \
            "$sys" "${cache#--}" \
            "$(sum "$TMP/summary.json")" \
            "$(sum "$TMP/stats.json")" \
            "$(sum "$TMP/events.jsonl")"
    done
done

for wl in vortex ijpeg stream chase uniform; do
    for sys in ULTRIX PA-RISC BASE; do
        "$CLI" --system="$sys" --cores=1 --workload="$wl" \
            --instructions=10000 --warmup=2000 --interval=2500 \
            --ctx-switch=997 --asid-bits=6 --l2-tlb=64 --json \
            --stats-json="$TMP/stats.json" \
            --trace-events="$TMP/events.jsonl" \
            > "$TMP/summary.json"
        printf '%s cores=1 workload=%s summary=%s stats=%s events=%s\n' \
            "$sys" "$wl" \
            "$(sum "$TMP/summary.json")" \
            "$(sum "$TMP/stats.json")" \
            "$(sum "$TMP/events.jsonl")"
    done
done

for sys in ULTRIX INTEL HW-INVERTED; do
    "$CLI" --system="$sys" --cores=1 --workload=vortex \
        --instructions=2000000 --warmup=2000 --interval=100000 --json \
        --stats-json="$TMP/stats.json" \
        > "$TMP/summary.json"
    printf '%s cores=1 workload=vortex instructions=2000000 summary=%s stats=%s\n' \
        "$sys" \
        "$(sum "$TMP/summary.json")" \
        "$(sum "$TMP/stats.json")"
done

for sys in ULTRIX INTEL PA-RISC; do
    for reclaim in lru clock; do
        "$CLI" --system="$sys" --cores=4 --workload=vortex \
            --instructions=200000 --tlb=32 --protected=8 --l2-tlb=512 \
            --ctx-switch=25000 --asid-bits=6 --phys-mb=1 \
            --reclaim="$reclaim" --json \
            --stats-json="$TMP/stats.json" \
            --trace-events="$TMP/events.jsonl" \
            > "$TMP/summary.json"
        printf '%s cores=4 workload=vortex phys-mb=1 reclaim=%s summary=%s stats=%s events=%s\n' \
            "$sys" "$reclaim" \
            "$(sum "$TMP/summary.json")" \
            "$(sum "$TMP/stats.json")" \
            "$(sum "$TMP/events.jsonl")"
    done
done

for sys in ULTRIX MACH INTEL PA-RISC HW-INVERTED HW-MIPS; do
    for cores in 1 4; do
        for reclaim in lru clock; do
            "$CLI" --system="$sys" --cores="$cores" --workload=vortex \
                --instructions=200000 --tlb=32 --protected=8 --l2-tlb=512 \
                --ctx-switch=25000 --asid-bits=6 --phys-mb=1 \
                --reclaim="$reclaim" --json > "$TMP/summary.json"
            printf '%s cores=%s workload=vortex phys-mb=1 reclaim=%s summary-only summary=%s\n' \
                "$sys" "$cores" "$reclaim" "$(sum "$TMP/summary.json")"
        done
    done
done
