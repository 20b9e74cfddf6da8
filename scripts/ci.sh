#!/bin/sh
# The full local gate: the tier-1 build + unit-test suite, the
# source-tree line-count ceilings, a smoke run of every table-of-figures
# entry (checked against the committed figure-output manifest) and of
# every other bench binary, the batched-pipeline determinism check, the
# invariant/fuzz campaigns, the sharded-sweep and journal crash checks,
# the golden replay manifest, the perfbench digest grid, the hot-path
# kernel lint + perf smoke, then the three sanitizer builds (ASan,
# TSan, UBSan). Run this before merging anything that touches src/.
# Each stage uses its own build directory, so incremental reruns are
# cheap.
#
# Usage: scripts/ci.sh [jobs]   (default: nproc)
set -eu

cd "$(dirname "$0")/.."
JOBS=${1:-$(nproc)}

echo "== tier-1: build + ctest =="
# Any compiler warning fails the build (CMake's own switch, not a
# project option).
cmake -B build -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== line-count ceilings =="
# The source trees may shrink but not grow: each count (every .cc and
# .hh file under the tree, cat | wc -l) must stay at or under its
# committed ceiling. Lower a ceiling when a change shrinks its tree;
# raising one needs a reason in CHANGES.md.
for tree in src:21763 bench:2295 tests:14329 examples:1162; do
    dir=${tree%%:*}
    ceiling=${tree#*:}
    count=$(find "$dir" \( -name '*.cc' -o -name '*.hh' \) -print0 |
        xargs -0 cat | wc -l)
    echo "$dir/: $count lines (ceiling $ceiling)"
    if [ "$count" -gt "$ceiling" ]; then
        echo "line ceilings: $dir/ has $count lines, over its ceiling" \
             "of $ceiling" >&2
        exit 1
    fi
done

echo "== bench smoke =="
# One tiny sweep per entry of the table of figures and per standalone
# bench binary: a flag or engine regression fails here in seconds, not
# in a user's hour-long reproduction run.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
FIGURES=build/bench/vmsim_bench
for figure in $("$FIGURES" --list | cut -d' ' -f1); do
    "$FIGURES" --figure="$figure" --instructions=5000 --warmup=1000 \
        --jobs=2 --csv > "$SMOKE_DIR/$figure.csv"
    sha256sum < "$SMOKE_DIR/$figure.csv" | sed "s/-\$/$figure/"
done > "$SMOKE_DIR/figures_sha256.txt"
# Every entry's CSV must match tests/golden/figures_sha256.txt byte for
# byte. Regenerate the manifest (only when an *intentional* output
# change lands) with:
#     for f in $(build/bench/vmsim_bench --list | cut -d' ' -f1); do
#         build/bench/vmsim_bench --figure="$f" --instructions=5000 \
#             --warmup=1000 --jobs=2 --csv | sha256sum | sed "s/-\$/$f/"
#     done > tests/golden/figures_sha256.txt
cmp tests/golden/figures_sha256.txt "$SMOKE_DIR/figures_sha256.txt"
# bench_micro: pipeline + multicore artifacts only; the full
# microbench suite is manual.
build/bench/bench_micro --benchmark_filter=BM_TlbLookupHit \
    --pipeline-json="$SMOKE_DIR/BENCH_pipeline.json" \
    --multicore-json="$SMOKE_DIR/BENCH_multicore.json" > /dev/null 2>&1
test -s "$SMOKE_DIR/BENCH_pipeline.json"
test -s "$SMOKE_DIR/BENCH_multicore.json"
build/bench/bench_pressure --instructions=5000 --warmup=1000 --jobs=2 --csv \
    --pressure-json="$SMOKE_DIR/BENCH_pressure.json" \
    > "$SMOKE_DIR/bench_pressure.csv"
test -s "$SMOKE_DIR/BENCH_pressure.json"
build/bench/bench_multicore --instructions=5000 --warmup=1000 --jobs=2 \
    --csv > "$SMOKE_DIR/bench_multicore.csv"

echo "== batched pipeline determinism =="
FIG6="$FIGURES --figure=fig6_vmcpi_gcc"
# The trace cache and batched loop must not change a single output
# byte: the same grid with the cache off (and once more scalar+serial)
# must reproduce the cached parallel CSV exactly.
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=2 > "$SMOKE_DIR/fig6_cached.csv"
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=2 --trace-cache-mb=0 \
    > "$SMOKE_DIR/fig6_uncached.csv"
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=1 --trace-cache-mb=0 --batch=1 \
    > "$SMOKE_DIR/fig6_scalar.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_uncached.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_scalar.csv"
# Shared front ends (DESIGN.md section 6): in order and in parallel,
# sibling cells replay their group's recorded front end; under --check
# every cell carries a latency collector and runs its own VM. All three
# must agree byte for byte.
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=1 > "$SMOKE_DIR/fig6_shared1.csv"
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=4 > "$SMOKE_DIR/fig6_shared4.csv"
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=4 --check > "$SMOKE_DIR/fig6_unshared.csv"
cmp "$SMOKE_DIR/fig6_shared1.csv" "$SMOKE_DIR/fig6_unshared.csv"
cmp "$SMOKE_DIR/fig6_shared4.csv" "$SMOKE_DIR/fig6_unshared.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_unshared.csv"
# Pipelined back ends (DESIGN.md section 6, "Split blocks"): at --jobs=1
# these four-core budgeted cells run each split block's back end on a
# worker thread where the host has a hardware thread to spare; --check
# (observed blocks) and --batch=1 (the scalar loop) run no split block.
# All three must agree byte for byte.
PIPE="--csv --instructions=20000 --warmup=5000 --cores=4 --phys-mb=1 \
    --reclaim=clock"
$FIG6 $PIPE --jobs=1 > "$SMOKE_DIR/fig6_pipelined.csv"
$FIG6 $PIPE --jobs=4 --check > "$SMOKE_DIR/fig6_inline.csv"
$FIG6 $PIPE --jobs=1 --batch=1 > "$SMOKE_DIR/fig6_pipe_scalar.csv"
cmp "$SMOKE_DIR/fig6_pipelined.csv" "$SMOKE_DIR/fig6_inline.csv"
cmp "$SMOKE_DIR/fig6_pipelined.csv" "$SMOKE_DIR/fig6_pipe_scalar.csv"

echo "== multicore determinism =="
# The quantum scheduler keeps scalar/batched and serial/parallel runs
# bit-identical at four cores, and bench_micro's multicore report must
# materialize alongside the pipeline artifact.
build/bench/bench_multicore --csv --instructions=20000 --warmup=5000 \
    --core-quantum=2000 --jobs=2 > "$SMOKE_DIR/mc_parallel.csv"
build/bench/bench_multicore --csv --instructions=20000 --warmup=5000 \
    --core-quantum=2000 --jobs=1 --batch=1 \
    > "$SMOKE_DIR/mc_scalar.csv"
cmp "$SMOKE_DIR/mc_parallel.csv" "$SMOKE_DIR/mc_scalar.csv"

echo "== invariant checks + differential fuzz =="
# Every organization must satisfy its conservation and Table-4 laws
# (docs/checking.md); exit 1 on any violation fails the gate.
for sys in ULTRIX MACH INTEL PA-RISC NOTLB BASE HW-INVERTED HW-MIPS SPUR; do
    build/examples/vmsim_cli --system="$sys" --instructions=50000 \
        --warmup=10000 --interval=10000 --check > /dev/null
done
# Seeded fuzz campaign: scalar/batched/observed/cached legs must agree
# on every counter, and the report must be byte-stable across reruns.
# Tuples draw TLB geometry (tlbEntries in {32, 64}) alongside ASID and
# L2-TLB settings, so the TLB slot index's fill/evict/backward-shift
# paths are fuzzed on every gate run.
build/examples/vmsim_cli --fuzz=200 --seed=12345 \
    --fuzz-report="$SMOKE_DIR/fuzz_a.json" > /dev/null
build/examples/vmsim_cli --fuzz=200 --seed=12345 \
    --fuzz-report="$SMOKE_DIR/fuzz_b.json" > /dev/null
cmp "$SMOKE_DIR/fuzz_a.json" "$SMOKE_DIR/fuzz_b.json"
# Multicore leg: every tuple pinned to four cores so the shootdown
# books and per-core conservation laws get fuzzed on every gate run.
build/examples/vmsim_cli --fuzz=50 --seed=12345 --cores=4 > /dev/null

echo "== flag bounds =="
# Both front ends parse the shared flags through one table
# (RunOptions::flags()). Out-of-range numbers must be refused, never
# narrowed: 2^32 + 64 used to run a 64-entry TLB, and a --phys-mb past
# 2^44 - 1 wrapped to a 256-frame budget. Empty paths and a zero
# interval are refused too. Each refusal exits 1 with exactly one
# stderr line (fatal() prints it; the mains' one error boundary,
# guardedMain, adds nothing), in vmsim_cli, in vmsim_bench and in the
# example programs, which used to abort with exit 134 on an escaped
# error (trace_stats on a missing file) or report a bad workload per
# sweep cell and exit 0 (compare_mmus).
refuse() {
    status=0
    "$@" > /dev/null 2> "$SMOKE_DIR/refused.txt" || status=$?
    lines=$(wc -l < "$SMOKE_DIR/refused.txt")
    if [ "$status" -ne 1 ] || [ "$lines" -ne 1 ]; then
        echo "flag bounds: $* exited $status with $lines stderr" \
             "lines, expected 1 and 1" >&2
        cat "$SMOKE_DIR/refused.txt" >&2
        exit 1
    fi
}
for bad in --tlb=4294967360 --l1-line=4294967328 --cores=4294967297 \
           --phys-mb=17592186044417 --interval=0 --trace-events=; do
    refuse build/examples/vmsim_cli --instructions=1000 "$bad"
done
refuse $FIG6 --cores=0
# Retired flags (the per-cell watchdog, the Prometheus file, the
# process supervisor) are unknown arguments, not silently ignored.
for gone in --cell-timeout=1 --metrics-out=F --supervise=2 \
            --max-restarts=1 --heartbeat=1; do
    refuse build/examples/vmsim_cli --instructions=1000 "$gone"
    refuse $FIG6 --instructions=1000 "$gone"
done
refuse $FIG6 --tlb=4294967360
# Shard workers run their cells without observers, so both front ends
# refuse an observation flag given with --shard-dir.
refuse build/examples/vmsim_cli --instructions=1000 \
    --shard-dir="$SMOKE_DIR/obs_shards" --trace-events="$SMOKE_DIR/ev"
refuse $FIG6 --instructions=1000 --shard-dir="$SMOKE_DIR/obs_shards" \
    --stats-json="$SMOKE_DIR/stats.json"
refuse "$FIGURES" --figure=nosuch
refuse build/examples/trace_stats /nonexistent
refuse build/examples/compare_mmus nosuchworkload 1000

echo "== memory pressure =="
# Every organization must satisfy the pressure laws (docs/pressure.md)
# — majorFaults + reusedFrames == pagesTouched chief among them —
# under a tight frame budget, with all three reclaim policies covered.
i=0
for sys in ULTRIX MACH INTEL PA-RISC NOTLB BASE HW-INVERTED HW-MIPS SPUR; do
    case $((i % 3)) in
    0) pol=fifo ;;
    1) pol=lru ;;
    *) pol=clock ;;
    esac
    build/examples/vmsim_cli --system="$sys" --instructions=200000 \
        --warmup=20000 --phys-mb=1 --reclaim="$pol" --check \
        > "$SMOKE_DIR/pressure_$sys.txt"
    i=$((i + 1))
done
# The budget genuinely bites: the summary must carry the pfCPI line
# (printed only when major-fault cycles were charged), and the run
# must have re-faulted evicted pages, not just demand-loaded them.
grep -q "pfCPI" "$SMOKE_DIR/pressure_ULTRIX.txt"
grep "pfCPI" "$SMOKE_DIR/pressure_ULTRIX.txt" |
    grep -qv " 0 writebacks" || {
        echo "pressure: no writebacks under --phys-mb=1" >&2
        exit 1
    }
# Budget-off identity: a binary carrying the pressure code, even with
# a --reclaim preference set, must reproduce the no-flag CSV exactly
# when no --phys-mb budget is given.
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=2 --reclaim=lru \
    > "$SMOKE_DIR/fig6_noflag_pressure.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_noflag_pressure.csv"
# Budgeted runs keep the scalar/batched/parallel bit-identity promise.
build/bench/bench_pressure --csv --instructions=20000 --warmup=5000 \
    --jobs=2 --pressure-json="$SMOKE_DIR/pressure_parallel.json" \
    > "$SMOKE_DIR/pressure_parallel.csv"
build/bench/bench_pressure --csv --instructions=20000 --warmup=5000 \
    --jobs=1 --batch=1 --trace-cache-mb=0 \
    --pressure-json="$SMOKE_DIR/pressure_scalar.json" \
    > "$SMOKE_DIR/pressure_scalar.csv"
cmp "$SMOKE_DIR/pressure_parallel.csv" "$SMOKE_DIR/pressure_scalar.csv"
cmp "$SMOKE_DIR/pressure_parallel.json" "$SMOKE_DIR/pressure_scalar.json"

echo "== sweep telemetry =="
# A telemetry-enabled sweep must write well-formed JSONL heartbeats
# whose final record accounts for the whole grid — and must not change
# a single byte of the sweep CSV.
$FIG6 --csv --instructions=20000 \
    --warmup=5000 --jobs=2 --progress=0.2 \
    --progress-out="$SMOKE_DIR/fig6_progress.jsonl" \
    > "$SMOKE_DIR/fig6_telemetry.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_telemetry.csv"
python3 - "$SMOKE_DIR/fig6_progress.jsonl" <<'EOF'
import json, sys

# Every heartbeat is one JSON object per line; the final one must
# account for the whole grid (done + failed == total, pending == 0).
records = []
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        for key in ("ts", "elapsed_s", "cells_total", "done", "failed",
                    "retried", "pending", "instrs", "instrs_per_sec",
                    "workers"):
            assert key in rec, f"line {n}: missing {key!r}"
        records.append(rec)
assert records, "no heartbeat records"
last = records[-1]
assert last["done"] + last["failed"] == last["cells_total"], last
assert last["pending"] == 0, last
print(f"telemetry ok: {len(records)} heartbeats")
EOF

echo "== crash-tolerant sharded sweeps =="
# Headline guarantee (docs/robustness.md): four workers over one grid,
# each booby-trapped to SIGKILL itself with a torn final record and
# restarted by a shell loop until it exits 0 (at most 8 restarts per
# worker), must merge to a CSV byte-identical to one uninterrupted
# single-process worker.
SHARD_ARGS="--instructions=20000 --seeds=8 --sweep-systems=ULTRIX,MACH"
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_base" > /dev/null 2>&1
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_base" --shard-merge \
    > "$SMOKE_DIR/shard_base.csv" 2> /dev/null
pids=""
for owner in w0 w1 w2 w3; do
    (
        restarts=0
        until build/examples/vmsim_cli $SHARD_ARGS \
                --shard-dir="$SMOKE_DIR/shard_crash" --shard-owner=$owner \
                --lease-seconds=1 --crash-after=after=6,torn=1 \
                > /dev/null 2>&1; do
            if [ "$restarts" -ge 8 ]; then
                echo "crash stage: worker $owner exhausted its 8" \
                     "restarts" >&2
                exit 1
            fi
            restarts=$((restarts + 1))
            echo "$owner" >> "$SMOKE_DIR/shard_restarts.txt"
        done
    ) &
    pids="$pids $!"
done
for pid in $pids; do
    wait "$pid"
done
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_crash" --shard-merge \
    > "$SMOKE_DIR/shard_crash.csv" 2> /dev/null
# The workers must have actually been killed and restarted.
test -s "$SMOKE_DIR/shard_restarts.txt"
cmp "$SMOKE_DIR/shard_base.csv" "$SMOKE_DIR/shard_crash.csv"
# Seeded kill campaigns: rounds of random SIGKILLs (torn tails
# included) against real forked workers; any journal-integrity or
# merge byte-identity violation exits 1 and fails the gate.
build/examples/vmsim_cli --crash-fuzz=50 --seed=12345 \
    --shard-dir="$SMOKE_DIR/crash_fuzz" \
    > "$SMOKE_DIR/crash_fuzz.json"
test -s "$SMOKE_DIR/crash_fuzz.json"

echo "== journal kill and resume =="
# A sweep journal is a one-owner shard log with the same recovery
# contract: a sweep SIGKILLed mid-run (a torn final record included)
# and rerun with --resume must print the uninterrupted run's CSV byte
# for byte. The check holds wherever the kill lands, before the first
# record, mid-sweep or after the last.
JOURNAL_ARGS="--csv --instructions=100000 --warmup=20000 --jobs=2"
$FIG6 $JOURNAL_ARGS \
    > "$SMOKE_DIR/journal_clean.csv"
timeout -s KILL 0.25 $FIG6 $JOURNAL_ARGS \
    --journal="$SMOKE_DIR/fig6.journal" > /dev/null 2>&1 || true
$FIG6 $JOURNAL_ARGS \
    --journal="$SMOKE_DIR/fig6.journal" --resume \
    > "$SMOKE_DIR/journal_resumed.csv" 2> /dev/null
cmp "$SMOKE_DIR/journal_clean.csv" "$SMOKE_DIR/journal_resumed.csv"

echo "== graceful SIGINT drain =="
# SIGINT drains a journaled sweep: in-flight cells are canceled at
# their next cancel poll, finished cells stay journaled, and the
# process exits 75 (kExitInterrupted). Rerun with --resume, it must
# print the uninterrupted run's CSV byte for byte. The signal goes out
# once a heartbeat reports a finished cell, so it lands mid-sweep.
DRAIN_ARGS="--csv --instructions=500000 --warmup=100000 --jobs=2"
$FIG6 $DRAIN_ARGS > "$SMOKE_DIR/drain_clean.csv"
$FIG6 $DRAIN_ARGS --journal="$SMOKE_DIR/drain.journal" \
    --progress=0.05 --progress-out="$SMOKE_DIR/drain_progress.jsonl" \
    > /dev/null 2>&1 &
drain_pid=$!
until grep -qE '"done":[1-9]' "$SMOKE_DIR/drain_progress.jsonl" \
        2> /dev/null; do
    kill -0 "$drain_pid" 2> /dev/null || {
        echo "graceful drain: the sweep ended before any heartbeat" >&2
        exit 1
    }
    sleep 0.05
done
kill -s INT "$drain_pid"
status=0
wait "$drain_pid" || status=$?
if [ "$status" -ne 75 ]; then
    echo "graceful drain: SIGINT sweep exited $status, expected 75" >&2
    exit 1
fi
$FIG6 $DRAIN_ARGS --journal="$SMOKE_DIR/drain.journal" --resume \
    > "$SMOKE_DIR/drain_resumed.csv" 2> /dev/null
cmp "$SMOKE_DIR/drain_clean.csv" "$SMOKE_DIR/drain_resumed.csv"

echo "== golden replay manifest =="
# Counters, event streams and interval series for all nine
# organizations at 1/2/4 cores must stay byte-identical to the
# committed manifest (docs: DESIGN.md "Hot-path data layout"). Any
# hot-path "optimization" that moves a single counter fails here.
scripts/golden_replay.sh build > "$SMOKE_DIR/golden_now.txt"
cmp tests/golden/replay_sha256.txt "$SMOKE_DIR/golden_now.txt"

echo "== perfbench digests =="
# Every cell of the four 108-cell perf grids (nine organizations, many
# cache geometries, frame budgets, observed runs) must reproduce the
# committed Results digests at seed 12345: a far wider byte-identity
# net than the golden manifest's single geometry. --seconds=0 makes
# one timed pass per grid; bench_perf exits 1 on any failed cell.
cmake -S perfbench -B "$SMOKE_DIR/perfbench_build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$SMOKE_DIR/perfbench_build" --target bench_perf -j "$JOBS" \
    > /dev/null
"$SMOKE_DIR/perfbench_build/bench_perf" --workload=all --plain \
    --seconds=0 --seed=12345 --digests=perfbench/expected_digests.json \
    > "$SMOKE_DIR/perf_digests.jsonl" 2> "$SMOKE_DIR/perf_digests.err" || {
        cat "$SMOKE_DIR/perf_digests.err" >&2
        exit 1
    }
python3 - "$SMOKE_DIR/perf_digests.jsonl" <<'EOF'
import json, sys

runs = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
assert len(runs) == 4, f"expected 4 workload runs, got {len(runs)}"
for r in runs:
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0, (
        f"{r['workload']}: {r['failed']}/{r['attempted']} cells failed")
print("perfbench digests ok: " +
      ", ".join(f"{r['workload']} {r['attempted']} cells" for r in runs))
EOF

echo "== kernel lint =="
# The devirtualized per-record kernels live between LINT-KERNEL-BEGIN
# and LINT-KERNEL-END markers. Virtual dispatch or node-based hash
# probes reappearing inside them is a silent hot-path regression: the
# code still passes every equivalence test, just slower. Fail instead.
for hot_hdr in src/os/vm_system.hh src/os/tlb_vm.hh src/os/vm_system.cc; do
    test -f "$hot_hdr"
    grep -q "LINT-KERNEL-BEGIN" "$hot_hdr"
    region=$(awk '/LINT-KERNEL-BEGIN/,/LINT-KERNEL-END/' "$hot_hdr")
    if printf '%s\n' "$region" | grep -nE 'virtual|unordered_map'; then
        echo "kernel lint: virtual dispatch or unordered_map inside" \
             "a LINT-KERNEL region of $hot_hdr" >&2
        exit 1
    fi
    # Any call spelling: a.instRef(x), vm->dataRef(x), this->instRef(x)
    # or a bare instRef(x); the instRefK/dataRefK kernels don't match.
    if printf '%s\n' "$region" |
            grep -nE '(^|[^[:alnum:]_])(instRef|dataRef)[[:space:]]*\('; then
        echo "kernel lint: per-record virtual instRef/dataRef call" \
             "inside a LINT-KERNEL region of $hot_hdr (use the" \
             "monomorphized instRefK/dataRefK kernels)" >&2
        exit 1
    fi
done
# The back end (ServiceReplay::block, the one merge of service
# accesses with user accesses) lists its memory ops without a branch
# (`nops += isMemOp()`); MemSystem::dataAccess counts stores by adding
# the flag. A data-dependent `if` on either mispredicts on a third or
# more of the records it sees and still passes every identity test.
# The back end also merges the logged service accesses by running each
# pass up to the next entry's record (stopAt on nextData_ and
# nextInst_), never by reading the log per reference.
merge=$(awk '/LINT-KERNEL-BEGIN/,/LINT-KERNEL-END/' src/os/vm_system.cc |
    awk '/^ServiceReplay::block\(/,/^}/')
if [ -z "$merge" ]; then
    echo "kernel lint: ServiceReplay::block is not defined inside the" \
         "LINT-KERNEL region of src/os/vm_system.cc" >&2
    exit 1
fi
if printf '%s\n' "$merge" | grep -nE '(if|while)[[:space:]]*\(.*isMemOp'; then
    echo "kernel lint: a branch on isMemOp() inside" \
         "ServiceReplay::block (compact the memory ops without one)" >&2
    exit 1
fi
if ! printf '%s\n' "$merge" | grep -q 'stopAt(nextData_' ||
        ! printf '%s\n' "$merge" | grep -q 'stopAt(nextInst_' ||
        printf '%s\n' "$merge" | grep -nE '(data_|inst_)[[:space:]]*(->|!=|==)'; then
    echo "kernel lint: ServiceReplay::block must bound each pass by" \
         "stopAt(nextData_/nextInst_), not read the log per reference" >&2
    exit 1
fi
# A split block's front end (TlbVm::refBlockT, the tlb_vm region)
# leaves every cache access to the back end, which puts them in order:
# one issued in the front end lands ahead of the whole block's back
# end, and a recording never logs it for the cells that replay it.
if awk '/LINT-KERNEL-BEGIN \(tlb_vm\)/,/LINT-KERNEL-END \(tlb_vm\)/' \
        src/os/tlb_vm.hh | grep -niE 'instFetch|dataAccess'; then
    echo "kernel lint: a cache access inside the front-end loop" \
         "(LINT-KERNEL region of src/os/tlb_vm.hh)" >&2
    exit 1
fi
if grep -nE 'if[[:space:]]*\([[:space:]]*store[[:space:]]*\)' \
        src/mem/mem_system.hh; then
    echo "kernel lint: a branch on the store flag in" \
         "src/mem/mem_system.hh (count stores as stores_ += store)" >&2
    exit 1
fi
# Walks probe TLBs through VmSystem::walkLookup, which calls the
# observed, out-of-line Tlb::lookup() only while a latency collector
# is attached. A direct lookup() call in src/os/ puts that probe on
# every unobserved walk and still passes every test.
if grep -rnE '(\.|->)lookup[[:space:]]*\(' src/os |
        grep -vF 'return lat_ ? tlb.lookup(v)'; then
    echo "kernel lint: an observed Tlb lookup() call in src/os/ (walks" \
         "probe through VmSystem::walkLookup)" >&2
    exit 1
fi
# The flat data-layout files must never regrow a node-based map
# (matching real uses — instantiations and includes — not prose in
# comments that explains what the flat layout replaced).
for hot_src in src/tlb/tlb.hh src/tlb/tlb.cc src/base/slot_index.hh \
               src/mem/phys_mem.hh \
               src/mem/phys_mem.cc src/mem/frame_pool.hh \
               src/mem/frame_pool.cc src/mem/cache.hh src/mem/cache.cc \
               src/mem/mem_system.hh src/mem/mem_system.cc \
               src/pt/intel_page_table.hh \
               src/pt/intel_page_table.cc src/pt/hashed_page_table.hh \
               src/pt/hashed_page_table.cc; do
    if grep -nE 'unordered_map[[:space:]]*<|include[[:space:]]*<unordered_map>' \
            "$hot_src"; then
        echo "kernel lint: unordered_map in hot file $hot_src" >&2
        exit 1
    fi
done
# The TLB's key->slot index and the budgeted FramePool's vpn->slot
# index are SlotIndexes. SlotIndex::find is header-defined so every
# refBlock kernel inlines the probe, and so does a store's
# FramePool::markDirty. An out-of-line find or an out-of-line markDirty
# still passes every test, just slower on every reference or store.
# Validity is a bitmap: a per-slot byte array regrowing in Tlb fails
# too.
if grep -nE 'AlignedVec<std::uint8_t>[[:space:]]+valid_' src/tlb/tlb.hh; then
    echo "kernel lint: src/tlb/tlb.hh keeps a validity byte per slot" \
         "(validity is the valid_ bitmap)" >&2
    exit 1
fi
if grep -rnE --exclude=slot_index.hh \
        '(^|[[:space:]]|::)SlotIndex::find[[:space:]]*\(' src; then
    echo "kernel lint: SlotIndex::find defined outside" \
         "src/base/slot_index.hh (keep it inline in the header)" >&2
    exit 1
fi
if grep -nE '(^|[[:space:]])FramePool::markDirty[[:space:]]*\(' \
        src/mem/frame_pool.cc; then
    echo "kernel lint: FramePool::markDirty defined out of line in" \
         "src/mem/frame_pool.cc (keep it inline in frame_pool.hh)" >&2
    exit 1
fi
# The per-reference cache path is defined in the headers so every
# kernel inlines the direct-mapped tag check. An out-of-line definition
# in a .cc still passes every test, just as a call per reference.
if grep -nE '(^|[[:space:]])(Cache::access|MemSystem::(instFetch|dataAccess))[[:space:]]*\(' \
        src/mem/*.cc; then
    echo "kernel lint: Cache::access, MemSystem::instFetch or" \
         "MemSystem::dataAccess defined out of line in src/mem/*.cc" \
         "(keep them inline in cache.hh / mem_system.hh)" >&2
    exit 1
fi
# The per-draw RNG calls are header-defined so the trace generators and
# Random replacement inline them; only seeding and geometric() belong
# in random.cc.
if grep -nE '(^|[[:space:]])Random::(next|uniform|uniformRange|uniformReal|chance)[[:space:]]*\(' \
        src/base/random.cc; then
    echo "kernel lint: a per-draw Random call defined out of line in" \
         "src/base/random.cc (keep it inline in random.hh)" >&2
    exit 1
fi
# An observed TLB hit samples its reuse distance through the integer
# edge table, inlined into the probe: Histogram::sampleCount and
# Tlb::sampleReuse are header-defined. Out of line in a .cc they still
# pass every test, just as a call per TLB hit.
if grep -nE '(^|[[:space:]])(Histogram::sampleCount|Tlb::sampleReuse)[[:space:]]*\(' \
        src/base/stats.cc src/tlb/tlb.cc; then
    echo "kernel lint: Histogram::sampleCount or Tlb::sampleReuse" \
         "defined out of line in src/base/stats.cc or src/tlb/tlb.cc" \
         "(keep them inline in stats.hh / tlb.hh)" >&2
    exit 1
fi
# The data generators are a closed std::variant set dispatched by a
# switch; a virtual base regrowing in components.hh (outside comments)
# puts an indirect call back on every data reference.
if grep -nE '^[^*/]*\bvirtual\b' src/trace/synthetic/components.hh; then
    echo "kernel lint: virtual in src/trace/synthetic/components.hh" \
         "(the generators are a closed variant set)" >&2
    exit 1
fi
# Threads stop at the trace decorator (src/trace/prefetch.*): the
# synthetic generators stay single-threaded state machines that a
# PrefetchedTrace owns, and the per-record kernels stay free of
# synchronisation. A lock or an atomic in either still passes every
# identity test, just as a cost on every record.
sync_re='std::(thread|jthread|atomic|mutex)'
if grep -rnE "$sync_re" src/trace/synthetic; then
    echo "kernel lint: std::thread, std::atomic or std::mutex in" \
         "src/trace/synthetic/ (generators are single-threaded; the" \
         "PrefetchedTrace decorator owns the thread)" >&2
    exit 1
fi
for hot_hdr in $(grep -rl "LINT-KERNEL-BEGIN" src); do
    if awk '/LINT-KERNEL-BEGIN/,/LINT-KERNEL-END/' "$hot_hdr" |
            grep -nE "$sync_re"; then
        echo "kernel lint: std::thread, std::atomic or std::mutex inside" \
             "a LINT-KERNEL region of $hot_hdr" >&2
        exit 1
    fi
done
# One CRC implementation: the carry-less-multiply kernel, its
# intrinsics headers and the polynomial live in src/base/crc.cc alone,
# and crc.hh's detail:: paths are for tests. A second CRC elsewhere in
# src/ still passes every test, as a second source of truth.
crc_hits=$(grep -rniE \
        '_mm_clmulepi64_si128|<(immintrin|wmmintrin)\.h>|0xEDB88320|detail::crc32' \
        src | grep -v '^src/base/crc\.cc:' || true)
if [ -n "$crc_hits" ]; then
    printf '%s\n' "$crc_hits" >&2
    echo "kernel lint: CRC32 kernel, intrinsics or polynomial outside" \
         "src/base/crc.cc, or a detail::crc32 path called from src/" \
         "(call crc32())" >&2
    exit 1
fi

# One crash-safe log walker: sweep journals and shard logs are read by
# one function in src/core/shard.cc. A second file under src/ (outside
# the CRC primitives in src/base/) calling crcUnframeLine is a second
# walker with its own torn-tail and corruption rules.
unframe_files=$(grep -rlE '^[^*/]*crcUnframeLine[[:space:]]*\(' src |
    grep -v '^src/base/' || true)
if [ "$(printf '%s' "$unframe_files" | grep -c .)" -gt 1 ]; then
    printf '%s\n' "$unframe_files" >&2
    echo "kernel lint: more than one file under src/ calls" \
         "crcUnframeLine (walk CRC-framed logs through ShardLog," \
         "src/core/shard.cc)" >&2
    exit 1
fi

echo "== perf smoke =="
# The batched replay path must beat the scalar generate path within
# the same run (load-invariant), and must stay inside a tolerance
# band of the committed PR8 baseline. The band is wide (0.8x) so a
# loaded CI box does not flake, but a real devirtualization or layout
# regression — which costs integer factors, not percents — fails.
build/bench/bench_micro --benchmark_filter='^$' \
    --pipeline-json="$SMOKE_DIR/perf_pipeline.json" \
    --multicore-json="$SMOKE_DIR/perf_multicore.json" \
    --baseline-json=bench/baselines/BENCH_pipeline_pr8.json \
    2> /dev/null
python3 - "$SMOKE_DIR/perf_pipeline.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
modes = report["modes"]
scalar = modes["scalar_generate_ips"]
replay = modes["batched_replay_ips"]
assert replay >= scalar, (
    f"batched replay ({replay:.0f} instrs/s) slower than scalar "
    f"generate ({scalar:.0f} instrs/s)")
baseline = report["baseline"]
assert baseline["batched_replay_ips"] > 0, "unreadable baseline"
gain = baseline["batched_replay_gain"]
assert gain >= 0.8, (
    f"batched replay regressed to {gain:.2f}x of the committed "
    f"baseline {baseline['path']}")
print(f"perf smoke ok: batched replay {replay / scalar:.2f}x scalar, "
      f"{gain:.2f}x committed baseline")
EOF

echo "== sanitizers =="
scripts/check_asan.sh
scripts/check_tsan.sh
scripts/check_ubsan.sh

echo "ci.sh: all checks passed."
