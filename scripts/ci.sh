#!/bin/sh
# The full local gate: the tier-1 build + unit-test suite, a smoke run
# of every bench binary, the batched-pipeline determinism check, the
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
cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== bench smoke =="
# One tiny sweep per bench binary: a flag or engine regression fails
# here in seconds, not in a user's hour-long reproduction run.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
for bench in build/bench/bench_*; do
    [ -f "$bench" ] && [ -x "$bench" ] || continue
    name=$(basename "$bench")
    case "$name" in
    bench_micro)
        # Pipeline + multicore artifacts only; the full microbench
        # suite is manual.
        "$bench" --benchmark_filter=BM_TlbLookupHit \
            --pipeline-json="$SMOKE_DIR/BENCH_pipeline.json" \
            --multicore-json="$SMOKE_DIR/BENCH_multicore.json" \
            > /dev/null 2>&1
        test -s "$SMOKE_DIR/BENCH_pipeline.json"
        test -s "$SMOKE_DIR/BENCH_multicore.json"
        ;;
    bench_pressure)
        "$bench" --instructions=5000 --warmup=1000 --jobs=2 --csv \
            --pressure-json="$SMOKE_DIR/BENCH_pressure.json" \
            > "$SMOKE_DIR/$name.csv"
        test -s "$SMOKE_DIR/BENCH_pressure.json"
        ;;
    *)
        "$bench" --instructions=5000 --warmup=1000 --jobs=2 --csv \
            > "$SMOKE_DIR/$name.csv"
        ;;
    esac
done

echo "== batched pipeline determinism =="
# The trace cache and batched loop must not change a single output
# byte: the same grid with the cache off (and once more scalar+serial)
# must reproduce the cached parallel CSV exactly.
build/bench/bench_fig6_vmcpi_gcc --csv --instructions=20000 \
    --warmup=5000 --jobs=2 > "$SMOKE_DIR/fig6_cached.csv"
build/bench/bench_fig6_vmcpi_gcc --csv --instructions=20000 \
    --warmup=5000 --jobs=2 --trace-cache-mb=0 \
    > "$SMOKE_DIR/fig6_uncached.csv"
build/bench/bench_fig6_vmcpi_gcc --csv --instructions=20000 \
    --warmup=5000 --jobs=1 --trace-cache-mb=0 --batch=1 \
    > "$SMOKE_DIR/fig6_scalar.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_uncached.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_scalar.csv"

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
build/bench/bench_fig6_vmcpi_gcc --csv --instructions=20000 \
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
# A telemetry-enabled sweep must produce a valid Prometheus exposition
# and well-formed JSONL heartbeats whose final record accounts for the
# whole grid — and must not change a single byte of the sweep CSV.
build/bench/bench_fig6_vmcpi_gcc --csv --instructions=20000 \
    --warmup=5000 --jobs=2 --progress=0.2 \
    --progress-out="$SMOKE_DIR/fig6_progress.jsonl" \
    --metrics-out="$SMOKE_DIR/fig6_metrics.prom" \
    > "$SMOKE_DIR/fig6_telemetry.csv"
cmp "$SMOKE_DIR/fig6_cached.csv" "$SMOKE_DIR/fig6_telemetry.csv"
python3 - "$SMOKE_DIR/fig6_progress.jsonl" "$SMOKE_DIR/fig6_metrics.prom" <<'EOF'
import json, sys

jsonl_path, prom_path = sys.argv[1], sys.argv[2]

# Every heartbeat is one JSON object per line; the final one must
# account for the whole grid (done + failed == total, pending == 0).
records = []
with open(jsonl_path) as f:
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

# Tiny Prometheus text-format parser: every sample line must be
# "name[{labels}] value" with a float value, and every metric family
# must carry # HELP and # TYPE headers.
helped, typed, samples = set(), set(), 0
with open(prom_path) as f:
    for n, line in enumerate(f, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] == "gauge", f"line {n}: {line!r}"
            typed.add(parts[2])
            continue
        assert not line.startswith("#"), f"line {n}: {line!r}"
        name_part, _, value = line.rpartition(" ")
        float(value)
        name = name_part.split("{", 1)[0]
        base = name
        assert base in typed, f"line {n}: sample for untyped {base!r}"
        assert base in helped, f"line {n}: sample for unhelped {base!r}"
        samples += 1
expected = {"vmsim_sweep_cells_total", "vmsim_sweep_cells_done",
            "vmsim_sweep_cells_failed", "vmsim_sweep_cells_pending",
            "vmsim_sweep_instrs_total", "vmsim_sweep_eta_seconds"}
missing = expected - typed
assert not missing, f"missing metrics: {sorted(missing)}"
assert samples >= len(typed), "fewer samples than metric families"
print(f"telemetry ok: {len(records)} heartbeats, "
      f"{samples} prometheus samples")
EOF

echo "== crash-tolerant sharded sweeps =="
# Headline guarantee (docs/robustness.md): a supervised 4-worker run
# of a grid — every worker booby-trapped to SIGKILL itself with a torn
# final record, restarted by the supervisor with backoff — must merge
# to a CSV byte-identical to one uninterrupted single-process worker.
SHARD_ARGS="--instructions=20000 --seeds=8 --sweep-systems=ULTRIX,MACH"
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_base" > /dev/null 2>&1
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_base" --shard-merge \
    > "$SMOKE_DIR/shard_base.csv" 2> /dev/null
build/examples/vmsim_cli $SHARD_ARGS \
    --shard-dir="$SMOKE_DIR/shard_crash" --supervise=4 \
    --lease-seconds=1 --crash-after=after=6,torn=1 \
    > "$SMOKE_DIR/shard_crash.csv" 2> "$SMOKE_DIR/shard_crash.err"
# The supervisor must have actually seen kills and restarted workers.
grep -q "supervisor: worker" "$SMOKE_DIR/shard_crash.err"
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
build/bench/bench_fig6_vmcpi_gcc $JOURNAL_ARGS \
    > "$SMOKE_DIR/journal_clean.csv"
timeout -s KILL 0.25 build/bench/bench_fig6_vmcpi_gcc $JOURNAL_ARGS \
    --journal="$SMOKE_DIR/fig6.journal" > /dev/null 2>&1 || true
build/bench/bench_fig6_vmcpi_gcc $JOURNAL_ARGS \
    --journal="$SMOKE_DIR/fig6.journal" --resume \
    > "$SMOKE_DIR/journal_resumed.csv" 2> /dev/null
cmp "$SMOKE_DIR/journal_clean.csv" "$SMOKE_DIR/journal_resumed.csv"

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
for hot_hdr in src/os/vm_system.hh src/os/tlb_vm.hh; do
    test -f "$hot_hdr"
    grep -q "LINT-KERNEL-BEGIN" "$hot_hdr"
    region=$(awk '/LINT-KERNEL-BEGIN/,/LINT-KERNEL-END/' "$hot_hdr")
    if printf '%s\n' "$region" | grep -nE 'virtual|unordered_map'; then
        echo "kernel lint: virtual dispatch or unordered_map inside" \
             "a LINT-KERNEL region of $hot_hdr" >&2
        exit 1
    fi
    if printf '%s\n' "$region" | grep -nE '\.(instRef|dataRef)\('; then
        echo "kernel lint: per-record virtual instRef/dataRef call" \
             "inside a LINT-KERNEL region of $hot_hdr (use the" \
             "monomorphized instRefK/dataRefK kernels)" >&2
        exit 1
    fi
done
# The flat data-layout files must never regrow a node-based map
# (matching real uses — instantiations and includes — not prose in
# comments that explains what the flat layout replaced).
for hot_src in src/tlb/tlb.hh src/tlb/tlb.cc src/tlb/slot_index.hh \
               src/mem/phys_mem.hh \
               src/mem/phys_mem.cc src/mem/frame_pool.hh \
               src/mem/frame_pool.cc src/mem/cache.hh src/mem/cache.cc \
               src/mem/mem_system.hh src/mem/mem_system.cc \
               src/pt/intel_page_table.hh \
               src/pt/intel_page_table.cc src/pt/hashed_page_table.hh \
               src/pt/hashed_page_table.cc src/base/flat_hash.hh; do
    if grep -nE 'unordered_map[[:space:]]*<|include[[:space:]]*<unordered_map>' \
            "$hot_src"; then
        echo "kernel lint: unordered_map in hot file $hot_src" >&2
        exit 1
    fi
done
# The TLB's key->slot index is its own fixed-capacity SlotIndex: a TLB
# holds at most `entries` keys, so the growable FlatMap64 (three arrays,
# tombstones, incremental rehash) has no place in it. SlotIndex::find is
# header-defined so every refBlock kernel inlines the probe. A TLB back
# on FlatMap64, or an out-of-line find, still passes every test, just
# slower on every reference.
if grep -n 'FlatMap64' src/tlb/tlb.hh; then
    echo "kernel lint: src/tlb/tlb.hh names FlatMap64 (the TLB index" \
         "is SlotIndex, src/tlb/slot_index.hh)" >&2
    exit 1
fi
if grep -rnE --exclude=slot_index.hh \
        '(^|[[:space:]]|::)SlotIndex::find[[:space:]]*\(' src; then
    echo "kernel lint: SlotIndex::find defined outside" \
         "src/tlb/slot_index.hh (keep it inline in the header)" >&2
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
