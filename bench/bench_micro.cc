/**
 * @file
 * M1: microbenchmarks (google-benchmark) of the simulator primitives:
 * cache access, TLB lookup/insert, hashed-table walk, synthetic trace
 * generation/replay (scalar and batched), and the full simulation
 * step for each VM organization. These bound the wall-clock cost of
 * the sweep benches and catch performance regressions in the hot loop.
 *
 * Besides the google-benchmark suites, the binary times the three
 * end-to-end pipeline modes — scalar generate, batched generate, and
 * batched replay of a shared recording — and writes the instrs/sec
 * comparison to a JSON artifact (--pipeline-json=PATH, default
 * BENCH_pipeline.json) so the batched-pipeline speedup is tracked as
 * a number, not an anecdote. A second artifact (--multicore-json=PATH,
 * default BENCH_multicore.json) runs the same cell quantum-scheduled
 * on 1, 2, and 4 cores and records throughput plus the shootdown CPI
 * component at each point.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/flat_hash.hh"

#include "vmsim.hh"

namespace
{

using namespace vmsim;

void
BM_CacheAccessHit(benchmark::State &state)
{
    Cache cache(CacheParams{64_KiB, 32});
    cache.access(0x1000);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000));
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessStream(benchmark::State &state)
{
    Cache cache(CacheParams{64_KiB, 32});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a));
        a += 32;
    }
}
BENCHMARK(BM_CacheAccessStream);

void
BM_TlbLookupHit(benchmark::State &state)
{
    Tlb tlb(TlbParams{128, 16});
    tlb.insert(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.lookup(5));
}
BENCHMARK(BM_TlbLookupHit);

void
BM_TlbInsertChurn(benchmark::State &state)
{
    Tlb tlb(TlbParams{128, 16});
    Vpn v = 0;
    for (auto _ : state)
        tlb.insert(++v);
}
BENCHMARK(BM_TlbInsertChurn);

void
BM_HashedWalk(benchmark::State &state)
{
    PhysMem pm(8_MiB, 12);
    HashedPageTable pt(pm, 2);
    std::vector<Addr> buf;
    buf.reserve(16);
    Vpn v = 0;
    for (auto _ : state) {
        buf.clear();
        benchmark::DoNotOptimize(pt.walk((v++ * 7919) % 2048, buf));
    }
}
BENCHMARK(BM_HashedWalk);

// ---- hot-path layout before/after: the FA TLB key->slot index as a
// node-based unordered_map (the original), as the growable
// open-addressed FlatMap64 (the next) and as the fixed-capacity
// SlotIndex (today), probing a resident working set the size of a
// 128-entry TLB. Same keys, same access pattern; only the layout
// differs.

constexpr unsigned kIndexEntries = 128;

std::uint64_t
indexKey(unsigned i)
{
    // (asid << 48) | vpn composites, like the TLB feeds the index.
    return (static_cast<std::uint64_t>(i & 3) << 48) | (i * 7919u);
}

void
BM_IndexProbeUnorderedMap(benchmark::State &state)
{
    std::unordered_map<std::uint64_t, unsigned> index;
    for (unsigned i = 0; i < kIndexEntries; ++i)
        index.emplace(indexKey(i), i);
    unsigned i = 0;
    for (auto _ : state) {
        auto it = index.find(indexKey(i));
        benchmark::DoNotOptimize(it->second);
        i = (i + 1) % kIndexEntries;
    }
}
BENCHMARK(BM_IndexProbeUnorderedMap);

void
BM_IndexProbeFlatMap64(benchmark::State &state)
{
    FlatMap64<unsigned> index(kIndexEntries);
    for (unsigned i = 0; i < kIndexEntries; ++i)
        index.insertNew(indexKey(i), i);
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.find(indexKey(i)));
        i = (i + 1) % kIndexEntries;
    }
}
BENCHMARK(BM_IndexProbeFlatMap64);

void
BM_IndexProbeSlotIndex(benchmark::State &state)
{
    SlotIndex index(kIndexEntries);
    for (unsigned i = 0; i < kIndexEntries; ++i)
        index.insertNew(indexKey(i), i);
    unsigned i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(index.find(indexKey(i)));
        i = (i + 1) % kIndexEntries;
    }
}
BENCHMARK(BM_IndexProbeSlotIndex);

// ---- hashed-PT chain layout before/after: heap-allocated linked
// nodes (one pointer chase per hop) vs the flat arena (an index hop
// inside one contiguous vector), walking 2-deep chains like the
// paper's 1.25-average-chain table produces.

struct HeapChainNode
{
    Vpn vpn;
    Addr cacheAddr;
    std::unique_ptr<HeapChainNode> next;
};

void
BM_ChainWalkHeapNodes(benchmark::State &state)
{
    constexpr unsigned kBuckets = 1024;
    std::vector<std::unique_ptr<HeapChainNode>> heads(kBuckets);
    for (unsigned b = 0; b < kBuckets; ++b) {
        auto tail = std::make_unique<HeapChainNode>(
            HeapChainNode{b + kBuckets, 0x2000, nullptr});
        heads[b] = std::make_unique<HeapChainNode>(
            HeapChainNode{b, 0x1000, std::move(tail)});
    }
    Vpn v = 0;
    for (auto _ : state) {
        Vpn want = (v++ * 13) % (2 * kBuckets);
        const HeapChainNode *n = heads[want % kBuckets].get();
        while (n != nullptr && n->vpn != want)
            n = n->next.get();
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_ChainWalkHeapNodes);

void
BM_ChainWalkFlatArena(benchmark::State &state)
{
    constexpr unsigned kBuckets = 1024;
    constexpr std::uint32_t kNil = 0xffffffffu;
    struct ArenaNode
    {
        Vpn vpn;
        Addr cacheAddr;
        std::uint32_t next;
    };
    std::vector<ArenaNode> arena;
    std::vector<std::uint32_t> heads(kBuckets, kNil);
    for (unsigned b = 0; b < kBuckets; ++b) {
        arena.push_back({b, 0x1000, static_cast<std::uint32_t>(
                                        arena.size() + 1)});
        arena.push_back({b + kBuckets, 0x2000, kNil});
        heads[b] = static_cast<std::uint32_t>(arena.size() - 2);
    }
    Vpn v = 0;
    for (auto _ : state) {
        Vpn want = (v++ * 13) % (2 * kBuckets);
        std::uint32_t n = heads[want % kBuckets];
        while (n != kNil && arena[n].vpn != want)
            n = arena[n].next;
        benchmark::DoNotOptimize(n);
    }
}
BENCHMARK(BM_ChainWalkFlatArena);

void
BM_WorkloadNext(benchmark::State &state)
{
    GccLikeWorkload w(1);
    TraceRecord rec;
    for (auto _ : state) {
        w.next(rec);
        benchmark::DoNotOptimize(rec);
    }
}
BENCHMARK(BM_WorkloadNext);

void
BM_WorkloadNextBatch(benchmark::State &state)
{
    GccLikeWorkload w(1);
    std::vector<TraceRecord> buf(Simulator::kDefaultBatch);
    for (auto _ : state) {
        w.nextBatch(buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_WorkloadNextBatch);

void
BM_ReplayNextBatch(benchmark::State &state)
{
    GccLikeWorkload w(1);
    auto recorded = std::make_shared<const RecordedTrace>(
        RecordedTrace::record(w, 1 << 20, w.name()));
    ReplayCursor cursor(recorded);
    std::vector<TraceRecord> buf(Simulator::kDefaultBatch);
    for (auto _ : state) {
        if (cursor.nextBatch(buf.data(), buf.size()) < buf.size())
            cursor.rewind();
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_ReplayNextBatch);

void
BM_SimulatorStep(benchmark::State &state)
{
    SimConfig cfg;
    cfg.kind = static_cast<SystemKind>(state.range(0));
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    System sys(cfg);
    GccLikeWorkload trace(1);
    Simulator sim(sys.vm(), trace);
    for (auto _ : state)
        sim.run(1);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorStep)
    ->Arg(static_cast<int>(SystemKind::Ultrix))
    ->Arg(static_cast<int>(SystemKind::Mach))
    ->Arg(static_cast<int>(SystemKind::Intel))
    ->Arg(static_cast<int>(SystemKind::Parisc))
    ->Arg(static_cast<int>(SystemKind::Notlb))
    ->Arg(static_cast<int>(SystemKind::Base));

void
BM_SimulatorRunBatched(benchmark::State &state)
{
    SimConfig cfg;
    cfg.kind = static_cast<SystemKind>(state.range(0));
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    System sys(cfg);
    GccLikeWorkload trace(1);
    Simulator sim(sys.vm(), trace);
    constexpr Counter kChunk = Simulator::kDefaultBatch;
    for (auto _ : state)
        sim.run(kChunk);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_SimulatorRunBatched)
    ->Arg(static_cast<int>(SystemKind::Ultrix))
    ->Arg(static_cast<int>(SystemKind::Mach))
    ->Arg(static_cast<int>(SystemKind::Base));

/**
 * Time one full System::run() of @p instrs instructions and return
 * instrs/sec. @p batch selects the loop (1 = scalar); a non-null
 * @p recorded replays the shared recording instead of generating.
 */
double
pipelineInstrsPerSec(Counter instrs, std::size_t batch,
                     std::shared_ptr<const RecordedTrace> recorded)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    System sys(cfg);
    sys.setBatchSize(batch);
    std::unique_ptr<TraceSource> source;
    if (recorded)
        source = std::make_unique<ReplayCursor>(std::move(recorded));
    else
        source = makeWorkload("gcc", cfg.seed);
    const auto t0 = std::chrono::steady_clock::now();
    sys.run(*source, instrs, "gcc", 0);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return dt > 0 ? static_cast<double>(instrs) / dt : 0.0;
}

/**
 * Extract the numeric value of @p field from the JSON file at
 * @p path. The artifact format is our own flat report (no nesting
 * tricks), so a string scan is enough — base/json.hh only writes.
 * @return the value, or 0 if the file or field is missing.
 */
double
readJsonNumber(const std::string &path, const std::string &field)
{
    std::ifstream is(path);
    if (!is.is_open())
        return 0.0;
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    const std::string needle = "\"" + field + "\":";
    std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/**
 * The end-to-end pipeline comparison behind the sweep speedup: the
 * same 300K-instruction Ultrix cell sourced three ways. Written to
 * @p path and summarized on stderr. A non-empty @p baseline_path
 * names a committed earlier pipeline artifact; its batched-replay
 * throughput is echoed into the report with the gain over it, so CI
 * can diff the two as numbers.
 */
void
writePipelineReport(const std::string &path,
                    const std::string &baseline_path)
{
    const Counter instrs = 1'000'000;
    // Record once, like a sweep's first cell does for all the others.
    auto workload = makeWorkload("gcc", 12345);
    auto recorded = std::make_shared<const RecordedTrace>(
        RecordedTrace::record(*workload, instrs, workload->name()));

    // One throwaway pass warms the allocator and branch predictors;
    // best-of-5 measured passes damp scheduler noise.
    pipelineInstrsPerSec(instrs, 1, nullptr);
    auto best = [&](std::size_t batch,
                    std::shared_ptr<const RecordedTrace> rec) {
        double b = 0;
        for (int i = 0; i < 5; ++i)
            b = std::max(b, pipelineInstrsPerSec(instrs, batch, rec));
        return b;
    };
    const double scalarGen = best(1, nullptr);
    const double batchedGen = best(Simulator::kDefaultBatch, nullptr);
    const double batchedReplay =
        best(Simulator::kDefaultBatch, recorded);

    Json modes = Json::object();
    modes.set("scalar_generate_ips", Json(scalarGen));
    modes.set("batched_generate_ips", Json(batchedGen));
    modes.set("batched_replay_ips", Json(batchedReplay));
    Json speedup = Json::object();
    speedup.set("batched_generate_vs_scalar",
                Json(scalarGen > 0 ? batchedGen / scalarGen : 0.0));
    speedup.set("batched_replay_vs_scalar",
                Json(scalarGen > 0 ? batchedReplay / scalarGen : 0.0));
    Json out = Json::object();
    out.set("benchmark", Json("pipeline"));
    out.set("system", Json("ULTRIX"));
    out.set("workload", Json("gcc"));
    out.set("instructions", Json(static_cast<double>(instrs)));
    out.set("batch", Json(static_cast<double>(Simulator::kDefaultBatch)));
    out.set("modes", std::move(modes));
    out.set("speedup", std::move(speedup));
    if (!baseline_path.empty()) {
        const double base_replay =
            readJsonNumber(baseline_path, "batched_replay_ips");
        Json baseline = Json::object();
        baseline.set("path", Json(baseline_path));
        baseline.set("batched_replay_ips", Json(base_replay));
        baseline.set("batched_replay_gain",
                     Json(base_replay > 0 ? batchedReplay / base_replay
                                          : 0.0));
        out.set("baseline", std::move(baseline));
        if (base_replay > 0)
            std::cerr << "pipeline: baseline batched-replay "
                      << static_cast<long>(base_replay / 1000)
                      << "K instrs/s, gain "
                      << batchedReplay / base_replay << "x\n";
        else
            std::cerr << "bench_micro: baseline " << baseline_path
                      << " unreadable or missing batched_replay_ips\n";
    }

    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os.is_open()) {
        std::cerr << "bench_micro: cannot write " << path << '\n';
        return;
    }
    os << out.dump(2) << '\n';
    std::cerr << "pipeline: scalar-generate "
              << static_cast<long>(scalarGen / 1000) << "K instrs/s, "
              << "batched-generate "
              << static_cast<long>(batchedGen / 1000) << "K ("
              << batchedGen / scalarGen << "x), batched-replay "
              << static_cast<long>(batchedReplay / 1000) << "K ("
              << batchedReplay / scalarGen << "x) -> " << path << '\n';
}

/**
 * Time one quantum-scheduled multicore System::run() and return
 * (instrs/sec, Results). Batched loop; the trace is recorded once
 * inside runMulticore and fanned out to the per-core cursors.
 */
std::pair<double, Results>
multicoreRun(unsigned cores, Counter instrs)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    cfg.cores = cores;
    cfg.ctxSwitchInterval = 50'000;
    System sys(cfg);
    auto source = makeWorkload("gcc", cfg.seed);
    const auto t0 = std::chrono::steady_clock::now();
    Results r = sys.run(*source, instrs, "gcc", 0);
    const double dt =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return {dt > 0 ? static_cast<double>(instrs) / dt : 0.0,
            std::move(r)};
}

/**
 * The multicore scaling artifact: the same Ultrix cell scheduled on
 * 1, 2, and 4 cores, reporting simulation throughput and the
 * shootdown CPI component at each point. Written to @p path and
 * summarized on stderr.
 */
void
writeMulticoreReport(const std::string &path)
{
    const Counter instrs = 500'000;
    multicoreRun(1, instrs); // warm allocator/branch predictors

    Json points = Json::array();
    std::ostringstream summary;
    for (unsigned cores : {1u, 2u, 4u}) {
        double ips = 0;
        Results r;
        for (int i = 0; i < 3; ++i) {
            auto [this_ips, this_r] = multicoreRun(cores, instrs);
            if (this_ips > ips) {
                ips = this_ips;
                r = std::move(this_r);
            }
        }
        Json p = Json::object();
        p.set("cores", cores);
        p.set("instrs_per_sec", Json(ips));
        p.set("total_cpi", Json(r.totalCpi()));
        p.set("shootdown_cpi", Json(r.shootdownCpi()));
        points.push(std::move(p));
        summary << (cores == 1 ? "" : ", ") << cores << "-core "
                << static_cast<long>(ips / 1000) << "K instrs/s (sdCPI "
                << r.shootdownCpi() << ")";
    }

    Json out = Json::object();
    out.set("benchmark", Json("multicore"));
    out.set("system", Json("ULTRIX"));
    out.set("workload", Json("gcc"));
    out.set("instructions", Json(static_cast<double>(instrs)));
    out.set("points", std::move(points));

    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os.is_open()) {
        std::cerr << "bench_micro: cannot write " << path << '\n';
        return;
    }
    os << out.dump(2) << '\n';
    std::cerr << "multicore: " << summary.str() << " -> " << path
              << '\n';
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Peel off our own --pipeline-json / --multicore-json flags before
    // google-benchmark sees (and rejects) them.
    std::string pipeline_path = "BENCH_pipeline.json";
    std::string multicore_path = "BENCH_multicore.json";
    std::string baseline_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--pipeline-json=", 16) == 0)
            pipeline_path = argv[i] + 16;
        else if (std::strncmp(argv[i], "--multicore-json=", 17) == 0)
            multicore_path = argv[i] + 17;
        else if (std::strncmp(argv[i], "--baseline-json=", 16) == 0)
            baseline_path = argv[i] + 16;
        else
            args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    writePipelineReport(pipeline_path, baseline_path);
    writeMulticoreReport(multicore_path);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
