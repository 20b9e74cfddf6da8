/**
 * @file
 * Tests for the batched trace pipeline: nextBatch() equivalence with
 * next() across every source, recorded traces and replay cursors, the
 * shared trace cache, and — most importantly — bit-identical results,
 * event streams, and interval samples between the scalar and batched
 * simulation loops for all nine VM organizations.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "common.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "obs/event.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"
#include "os/base_vm.hh"
#include "os/hw_inverted_vm.hh"
#include "os/hw_mips_vm.hh"
#include "os/intel_vm.hh"
#include "os/mach_vm.hh"
#include "os/parisc_vm.hh"
#include "os/ultrix_vm.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"
#include "trace/trace_file.hh"

namespace vmsim
{
namespace
{

/** Deterministic bounded source that only implements next(). */
class CountedSource : public TraceSource
{
  public:
    explicit CountedSource(Counter total) : total_(total) {}

    bool
    next(TraceRecord &rec) override
    {
        if (emitted_ >= total_)
            return false;
        rec.pc = static_cast<std::uint32_t>(0x1000 + emitted_ * 4);
        rec.daddr = static_cast<std::uint32_t>(0x80000 + emitted_ * 8);
        rec.op = emitted_ % 3 == 0   ? MemOp::None
                 : emitted_ % 3 == 1 ? MemOp::Load
                                     : MemOp::Store;
        ++emitted_;
        return true;
    }

  private:
    Counter total_;
    Counter emitted_ = 0;
};

/** Write @p total CountedSource records to the trace file @p path. */
void
writeCounted(const std::string &path, Counter total)
{
    TraceFileWriter writer(path);
    CountedSource src(total);
    for (TraceRecord rec; src.next(rec);)
        writer.write(rec);
    writer.close();
}

/** Drain @p source one record at a time. */
std::vector<TraceRecord>
drainScalar(TraceSource &source)
{
    std::vector<TraceRecord> out;
    TraceRecord rec;
    while (source.next(rec))
        out.push_back(rec);
    return out;
}

/** Drain @p source via nextBatch() in chunks of @p chunk. */
std::vector<TraceRecord>
drainBatched(TraceSource &source, std::size_t chunk)
{
    std::vector<TraceRecord> out;
    std::vector<TraceRecord> buf(chunk);
    while (true) {
        std::size_t got = source.nextBatch(buf.data(), chunk);
        out.insert(out.end(), buf.begin(), buf.begin() + got);
        if (got < chunk)
            break;
    }
    return out;
}

TEST(NextBatch, DefaultFallbackMatchesScalar)
{
    CountedSource a(1000), b(1000);
    std::vector<TraceRecord> scalar = drainScalar(a);
    std::vector<TraceRecord> batched = drainBatched(b, 37);
    EXPECT_EQ(scalar, batched);
    EXPECT_EQ(scalar.size(), 1000u);

    // A drained source keeps returning 0, not garbage.
    TraceRecord rec;
    EXPECT_EQ(b.nextBatch(&rec, 1), 0u);
}

TEST(NextBatch, SyntheticMatchesScalarForAllWorkloads)
{
    for (const std::string name :
         {"gcc", "vortex", "ijpeg", "stream", "chase", "uniform"}) {
        auto scalarSrc = makeWorkload(name, 42);
        auto batchSrc = makeWorkload(name, 42);
        std::vector<TraceRecord> scalar(5000), batched(5000);
        for (auto &rec : scalar)
            ASSERT_TRUE(scalarSrc->next(rec));
        // Odd chunk size so batches never align with anything.
        std::size_t filled = 0;
        while (filled < batched.size()) {
            std::size_t want = std::min<std::size_t>(
                997, batched.size() - filled);
            ASSERT_EQ(batchSrc->nextBatch(batched.data() + filled, want),
                      want);
            filled += want;
        }
        EXPECT_EQ(scalar, batched) << name;
    }
}

TEST(NextBatch, TraceFileReaderMatchesScalar)
{
    TempFile file;
    // More records than one 4096-record I/O buffer, plus a remainder,
    // so batches cross refill boundaries.
    const Counter total = 2 * 4096 + 37;
    writeCounted(file.path(), total);

    TraceFileReader scalarReader(file.path());
    std::vector<TraceRecord> scalar = drainScalar(scalarReader);
    ASSERT_EQ(scalar.size(), total);

    TraceFileReader batchReader(file.path());
    std::vector<TraceRecord> batched = drainBatched(batchReader, 1000);
    EXPECT_EQ(scalar, batched);
    EXPECT_EQ(batchReader.recordsRead(), total);

    // rewind() resets the batch path too.
    batchReader.rewind();
    std::vector<TraceRecord> again = drainBatched(batchReader, 512);
    EXPECT_EQ(scalar, again);
}

TEST(NextBatch, TraceFileReaderCorruptOpThrowsAtExactRecord)
{
    TempFile file;
    const Counter total = 100;
    writeCounted(file.path(), total);
    // Corrupt record 60's op byte in place.
    {
        std::FILE *f = std::fopen(file.path().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        long off = static_cast<long>(kTraceHeaderBytes +
                                     60 * kTraceRecordBytes + 8);
        ASSERT_EQ(std::fseek(f, off, SEEK_SET), 0);
        unsigned char bad = 9;
        ASSERT_EQ(std::fwrite(&bad, 1, 1, f), 1u);
        std::fclose(f);
    }

    TraceFileReader reader(file.path());
    std::vector<TraceRecord> buf(total);
    // The good prefix decodes; the corrupt record throws with its
    // exact index, matching the scalar reader.
    EXPECT_EQ(reader.nextBatch(buf.data(), 50), 50u);
    try {
        reader.nextBatch(buf.data() + 50, 50);
        FAIL() << "corrupt record did not throw";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.error().code, ErrorCode::ParseError);
        EXPECT_NE(e.error().message.find("record 60"), std::string::npos)
            << e.error().message;
    }
    EXPECT_EQ(reader.recordsRead(), 60u);
}

TEST(RecordedTrace, RecordReplayRewind)
{
    auto src = makeWorkload("gcc", 3);
    RecordedTrace rec = RecordedTrace::record(*src, 1234, src->name());
    EXPECT_EQ(rec.size(), 1234u);
    EXPECT_EQ(rec.bytes(), 1234 * sizeof(TraceRecord));
    EXPECT_EQ(rec.name(), "gcc-like");
    EXPECT_FALSE(rec.empty());

    // A replay matches a fresh generator record-for-record.
    auto fresh = makeWorkload("gcc", 3);
    ReplayCursor cursor(
        std::make_shared<const RecordedTrace>(std::move(rec)));
    TraceRecord a, b;
    for (int i = 0; i < 1234; ++i) {
        ASSERT_TRUE(fresh->next(a));
        ASSERT_TRUE(cursor.next(b));
        ASSERT_EQ(a, b) << "record " << i;
    }
    // Exhaustion, then rewind restarts from the first record.
    EXPECT_FALSE(cursor.next(b));
    EXPECT_EQ(cursor.nextBatch(&b, 1), 0u);
    cursor.rewind();
    ASSERT_TRUE(cursor.next(b));
    EXPECT_EQ(b, cursor.trace().at(0));

    // Running dry mid-batch returns the short remainder, then nothing.
    cursor.rewind();
    std::vector<TraceRecord> buf(1000);
    EXPECT_EQ(cursor.nextBatch(buf.data(), 1000), 1000u);
    EXPECT_EQ(cursor.nextBatch(buf.data(), 1000), 234u);
    EXPECT_EQ(buf[0], cursor.trace().at(1000));
    EXPECT_EQ(buf[233], cursor.trace().at(1233));
    EXPECT_EQ(cursor.nextBatch(buf.data(), 1000), 0u);
    EXPECT_FALSE(cursor.next(b));

    // A bounded source yields a short recording, not an error.
    CountedSource short_src(10);
    RecordedTrace short_rec = RecordedTrace::record(short_src, 100);
    EXPECT_EQ(short_rec.size(), 10u);
}

TEST(RecordedTrace, LendBatchMatchesNextBatchZeroCopy)
{
    auto src = makeWorkload("gcc", 5);
    auto rec = std::make_shared<const RecordedTrace>(
        RecordedTrace::record(*src, 500, src->name()));

    // Sources without contiguous storage decline to lend.
    CountedSource counted(10);
    std::size_t got = 99;
    EXPECT_EQ(counted.lendBatch(4, got), nullptr);
    EXPECT_EQ(got, 0u);

    // The lent pointers walk the recording itself — same records as
    // nextBatch(), no copy — and exhaustion yields got == 0.
    ReplayCursor lender(rec), copier(rec);
    std::vector<TraceRecord> buf(96);
    std::size_t pos = 0;
    while (true) {
        const TraceRecord *p = lender.lendBatch(96, got);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(p, rec->records().data() + pos);
        ASSERT_EQ(copier.nextBatch(buf.data(), 96), got);
        for (std::size_t i = 0; i < got; ++i)
            ASSERT_EQ(p[i], buf[i]) << "record " << pos + i;
        pos += got;
        if (got < 96)
            break;
    }
    EXPECT_EQ(pos, 500u);
    EXPECT_EQ(lender.lendBatch(96, got), rec->records().data() + 500);
    EXPECT_EQ(got, 0u);
}

/**
 * A recording of three full CRC chunks plus a partial fourth, so the
 * first, a middle, and the last (short) chunk are all exercised.
 */
std::shared_ptr<const RecordedTrace>
chunkedRecording(std::size_t tail = 100)
{
    auto src = makeWorkload("vortex", 9);
    return std::make_shared<const RecordedTrace>(RecordedTrace::record(
        *src, 3 * RecordedTrace::kCrcChunkRecords + tail, src->name()));
}

/** A writable view of @p rec's record buffer: the stray write under test. */
TraceRecord *
strayWritable(const RecordedTrace &rec)
{
    return const_cast<TraceRecord *>(rec.records().data());
}

TEST(RecordedTrace, VerifyIntegrityPassesUntouched)
{
    auto rec = chunkedRecording();
    EXPECT_TRUE(rec->verifyIntegrity().ok());
    RecordedTrace empty(RecordedTrace::Buffer{});
    EXPECT_TRUE(empty.verifyIntegrity().ok());
}

TEST(RecordedTrace, VerifyIntegrityNamesTheCorruptedChunk)
{
    const std::size_t chunk = RecordedTrace::kCrcChunkRecords;
    const std::size_t base = 3 * chunk;
    static_assert(sizeof(TraceRecord) == 12);
    // (partial-chunk records, record to damage, expected range) for the
    // first, a middle and the last partial chunk. A 101-record tail is
    // 1,212 bytes: CRC32 folds the first 1,200 and finishes the last
    // record through the table path, so damage on both sides of that
    // split is covered.
    const struct
    {
        std::size_t tail, record, lo, hi;
    } cases[] = {{100, 0, 0, chunk},
                 {100, chunk + 1234, chunk, 2 * chunk},
                 {100, base + 99, base, base + 100},
                 {101, chunk + 1234, chunk, 2 * chunk},
                 {101, base + 100, base, base + 101}};
    for (const auto &c : cases) {
        auto rec = chunkedRecording(c.tail);
        // Flip one bit of the PC: the op stays valid, so only the chunk
        // checksum can notice.
        auto *bytes = reinterpret_cast<unsigned char *>(
            strayWritable(*rec) + c.record);
        bytes[1] ^= 0x10;
        Status st = rec->verifyIntegrity();
        ASSERT_FALSE(st.ok()) << "record " << c.record;
        EXPECT_EQ(st.error().code, ErrorCode::ParseError);
        const std::string want = "checksum mismatch in records [" +
                                 std::to_string(c.lo) + ", " +
                                 std::to_string(c.hi) + ")";
        EXPECT_NE(st.error().message.find(want), std::string::npos)
            << st.error().message;
        // Undoing the damage verifies clean again.
        bytes[1] ^= 0x10;
        EXPECT_TRUE(rec->verifyIntegrity().ok());
    }
}

TEST(RecordedTrace, VerifyIntegrityNamesTheExactBadOpRecord)
{
    auto rec = chunkedRecording();
    const std::size_t bad = 2 * RecordedTrace::kCrcChunkRecords + 77;
    strayWritable(*rec)[bad].op = static_cast<MemOp>(7);
    Status st = rec->verifyIntegrity();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.error().code, ErrorCode::ParseError);
    EXPECT_NE(st.error().message.find("record " + std::to_string(bad) +
                                      " has op=7"),
              std::string::npos)
        << st.error().message;
}

TEST(RecordedTrace, FramingRejectsABadOpAtItsExactRecord)
{
    RecordedTrace::Buffer recs(RecordedTrace::kCrcChunkRecords + 10,
                               TraceRecord{});
    recs[RecordedTrace::kCrcChunkRecords + 3].op = static_cast<MemOp>(5);
    try {
        RecordedTrace rec(std::move(recs), "bad");
        FAIL() << "invalid op was framed";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.error().code, ErrorCode::ParseError);
        EXPECT_NE(e.error().message.find(
                      "record " +
                      std::to_string(RecordedTrace::kCrcChunkRecords + 3) +
                      ": op=5"),
                  std::string::npos)
            << e.error().message;
    }
}

TEST(TraceCache, SharesOneRecordingPerKey)
{
    TraceCache cache(64u << 20);
    auto first = cache.acquire("gcc", 11, 1000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->size(), 1000u);
    EXPECT_EQ(first->name(), "gcc-like");

    auto second = cache.acquire("gcc", 11, 1000);
    EXPECT_EQ(first.get(), second.get()); // the same buffer, shared

    // Different seed, count, or workload are distinct recordings.
    auto other = cache.acquire("gcc", 12, 1000);
    EXPECT_NE(first.get(), other.get());

    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.fallbacks, 0u);
    EXPECT_EQ(stats.bytes, 2 * 1000 * sizeof(TraceRecord));
}

TEST(TraceCache, OverBudgetFallsBackToNullptr)
{
    // Budget fits one 1000-record trace but not two.
    TraceCache cache(1500 * sizeof(TraceRecord));
    auto first = cache.acquire("gcc", 1, 1000);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(cache.acquire("vortex", 1, 1000), nullptr);
    // The cached entry is still served.
    EXPECT_EQ(cache.acquire("gcc", 1, 1000).get(), first.get());

    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.fallbacks, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.bytes, 1000 * sizeof(TraceRecord));
}

SimConfig
batchTestConfig(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{16_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    cfg.seed = 777;
    // Prime interval so context switches land mid-batch for any
    // power-of-two-ish batch size.
    cfg.ctxSwitchInterval = 997;
    return cfg;
}

/** Everything one observed run produced, in comparable form. */
struct ObservedRun
{
    std::string results;
    std::vector<TraceEvent> events;
    std::string intervals;
};

ObservedRun
observedRun(SystemKind kind, std::size_t batch)
{
    CollectingSink sink;
    IntervalSampler sampler(1000);
    RunHooks hooks;
    hooks.sink = &sink;
    hooks.sampler = &sampler;
    hooks.batch = batch;
    Results r = runOnce(batchTestConfig(kind), "gcc", 20000, 5000, hooks);
    return {r.serialize().dump(), sink.events(),
            intervalsToJson(sampler.intervals()).dump()};
}

TEST(BatchedSimulator, BitIdenticalToScalarForAllSystems)
{
    for (SystemKind kind : kAllKinds) {
        ObservedRun scalar = observedRun(kind, 1);
        // 256 divides neither the 997-instruction quantum nor the
        // 1000-instruction sampling interval, so switches and interval
        // boundaries land mid-batch.
        ObservedRun batched = observedRun(kind, 256);

        EXPECT_EQ(scalar.results, batched.results) << kindName(kind);
        EXPECT_EQ(scalar.intervals, batched.intervals) << kindName(kind);
        ASSERT_EQ(scalar.events.size(), batched.events.size())
            << kindName(kind);
        for (std::size_t i = 0; i < scalar.events.size(); ++i) {
            const TraceEvent &a = scalar.events[i];
            const TraceEvent &b = batched.events[i];
            ASSERT_TRUE(a.kind == b.kind && a.level == b.level &&
                        a.instr == b.instr && a.vaddr == b.vaddr &&
                        a.vpn == b.vpn && a.cycles == b.cycles)
                << kindName(kind) << " event " << i;
        }
    }
}

/**
 * A sampler-only run (the `--check --interval` shape: no event sink):
 * the Results dump plus the interval series as JSON and as CSV (which
 * adds the raw per-interval counters).
 */
std::string
samplerOnlyRun(SystemKind kind, std::size_t batch, unsigned cores,
               Counter ctx_switch, Counter warmup)
{
    SimConfig cfg = batchTestConfig(kind);
    cfg.cores = cores;
    // Rotations every 1500 instructions, so quantum boundaries land
    // mid-batch and between sampler boundaries too.
    cfg.coreQuantum = 1500;
    cfg.ctxSwitchInterval = ctx_switch;
    IntervalSampler sampler(1000);
    RunHooks hooks;
    hooks.sampler = &sampler;
    hooks.batch = batch;
    Results r = runOnce(cfg, "gcc", 20000, warmup, hooks);
    std::ostringstream csv;
    sampler.writeCsv(csv);
    EXPECT_EQ(sampler.intervals().size(), 20u);
    return r.serialize().dump() + "\n" +
           intervalsToJson(sampler.intervals()).dump() + "\n" + csv.str();
}

TEST(BatchedSimulator, SamplerOnlyBitIdenticalToScalar)
{
    for (SystemKind kind : kAllKinds) {
        for (unsigned cores : {1u, 4u}) {
            // 997: switches and interval boundaries interleave. 1000:
            // switches fire at instructions 999 + 1000j (the first
            // quantum is one short), so a 4999-instruction warmup puts
            // every interval boundary on a switch, where the tick must
            // precede the switch.
            const struct
            {
                Counter ctx, warmup;
            } cases[] = {{997, 5000}, {1000, 4999}};
            for (const auto &c : cases) {
                const std::string scalar =
                    samplerOnlyRun(kind, 1, cores, c.ctx, c.warmup);
                for (std::size_t batch :
                     {std::size_t{256}, Simulator::kDefaultBatch})
                    EXPECT_EQ(scalar, samplerOnlyRun(kind, batch, cores,
                                                     c.ctx, c.warmup))
                        << kindName(kind) << " cores " << cores << " ctx "
                        << c.ctx << " batch " << batch;
            }
        }
    }
}

TEST(BatchedSimulator, UnobservedResultsIdenticalAcrossBatchSizes)
{
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::HwMips}) {
        std::string baseline;
        for (std::size_t batch : {std::size_t{1}, std::size_t{97},
                                  Simulator::kDefaultBatch}) {
            RunHooks hooks;
            hooks.batch = batch;
            Results r = runOnce(batchTestConfig(kind), "vortex", 30000,
                                3000, hooks);
            std::string dump = r.serialize().dump();
            if (baseline.empty())
                baseline = dump;
            else
                EXPECT_EQ(baseline, dump)
                    << kindName(kind) << " batch " << batch;
        }
    }
}

TEST(BatchedSimulator, ReplayedTraceMatchesGeneratedTrace)
{
    // A cell fed by a ReplayCursor over a recording must be
    // indistinguishable from one that generated the workload itself —
    // this is the contract the sweep trace cache relies on.
    const Counter instrs = 20000, warmup = 5000;
    RunHooks genHooks;
    Results generated =
        runOnce(batchTestConfig(SystemKind::Ultrix), "gcc", instrs,
                warmup, genHooks);

    TraceCache cache(64u << 20);
    RunHooks replayHooks;
    replayHooks.makeTrace = [&]() -> NamedTraceSource {
        auto rec = cache.acquire("gcc", 777, instrs + warmup);
        EXPECT_NE(rec, nullptr);
        std::string name = rec->name();
        return {std::make_unique<ReplayCursor>(std::move(rec)),
                std::move(name)};
    };
    Results replayed =
        runOnce(batchTestConfig(SystemKind::Ultrix), "gcc", instrs,
                warmup, replayHooks);

    EXPECT_EQ(generated.serialize().dump(), replayed.serialize().dump());
}

TEST(SweepTraceCache, CsvByteIdenticalCacheOnVsOff)
{
    SweepSpec spec;
    SimConfig base;
    base.l1 = CacheParams{16_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    base.seed = 777;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Mach})
        .workloads({"gcc", "ijpeg"})
        .l1Sizes({8_KiB, 32_KiB})
        .instructions(15000)
        .warmup(3000);

    std::ostringstream cached, uncached, uncachedWide, scalar;
    {
        SweepRunner runner(2);
        runner.traceCache(64); // cache on, parallel, batched
        runner.run(spec).writeCsv(cached);
    }
    {
        // Cache off: every cell regenerates. One worker leaves a
        // hardware thread free, so (on a host with two or more) each
        // cell's generator runs ahead on its own thread...
        SweepRunner runner(1);
        runner.traceCache(0);
        runner.run(spec).writeCsv(uncached);
    }
    {
        // ...while a worker per hardware thread leaves none free, so
        // cells generate in line once the sweep is under way.
        SweepRunner runner(ThreadPool::defaultThreads());
        runner.traceCache(0);
        runner.run(spec).writeCsv(uncachedWide);
    }
    {
        SweepRunner runner(1);
        runner.traceCache(0);
        runner.batchSize(1); // the scalar reference loop
        runner.run(spec).writeCsv(scalar);
    }
    EXPECT_EQ(cached.str(), uncached.str());
    EXPECT_EQ(cached.str(), uncachedWide.str());
    EXPECT_EQ(cached.str(), scalar.str());
    EXPECT_FALSE(cached.str().empty());
}

TEST(SweepTraceCache, OverBudgetCellsMatchReplayedCells)
{
    // A cache too small for any recording sends every cell down the
    // fallback path, which generates the trace live (prefetched when a
    // hardware thread is free): same Results as replaying it.
    SweepSpec spec;
    SimConfig base = batchTestConfig(SystemKind::Ultrix);
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Intel, SystemKind::Spur})
        .workloads({"gcc", "vortex"})
        .instructions(12000)
        .warmup(3000);
    TraceCache roomy(64u << 20);
    TraceCache full(0);
    const ObsOptions obs;   // CellRunner keeps references to these
    const FaultSpec faults; // two, so they outlive both runners
    CellRunner replaying(spec, obs, RetryPolicy{}, faults, 0, true, false,
                         &roomy);
    CellRunner generating(spec, obs, RetryPolicy{}, faults, 0, true, false,
                          &full);
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        CellExecution a = replaying.run(i);
        CellExecution b = generating.run(i);
        ASSERT_TRUE(a.outcome.ok) << a.outcome.error.toString();
        ASSERT_TRUE(b.outcome.ok) << b.outcome.error.toString();
        EXPECT_EQ(a.results.serialize().dump(),
                  b.results.serialize().dump());
    }
    EXPECT_EQ(full.stats().fallbacks, spec.numCells());
    EXPECT_EQ(roomy.stats().fallbacks, 0u);
}

TEST(SweepTraceCache, ComposesWithFaultInjection)
{
    // wrapTrace applies on top of whatever makeTrace returns, so a
    // fault campaign must hit the exact same records — and fail the
    // exact same cells — whether cells replay the shared recording or
    // regenerate their traces.
    SweepSpec spec;
    SimConfig base;
    base.seed = 777;
    spec.base(base)
        .systems({SystemKind::Ultrix})
        .l1Sizes({8_KiB, 16_KiB})
        .seeds(2)
        .instructions(10000)
        .warmup(2000);
    FaultSpec faults =
        FaultSpec::parse("corrupt=0.00005,throw=0.0001,seed=9")
            .orThrow();

    std::ostringstream cached, uncached;
    SweepRunner a(1), b(1);
    a.traceCache(64).injectFaults(faults);
    a.run(spec).writeCsv(cached);
    b.traceCache(0).injectFaults(faults);
    b.run(spec).writeCsv(uncached);
    EXPECT_EQ(cached.str(), uncached.str());
}

/**
 * The six TLB organizations and BASE: the organizations whose
 * unobserved blocks run split (VmSystem::splitBlock), a front end in
 * scalar order and then the back end's D and I passes. NOTLB and SPUR
 * keep the per-record order.
 */
constexpr SystemKind kSplitKinds[] = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::HwInverted, SystemKind::HwMips,
    SystemKind::Base};

/** Hit and miss counts of every core's I- and D-TLB, in core order. */
std::string
tlbCounts(const VmSystem &vm)
{
    std::ostringstream out;
    for (CoreId c = 0; c < vm.cores(); ++c)
        for (const Tlb *t : {vm.itlb(c), vm.dtlb(c)})
            if (t)
                out << ' ' << t->hits() << '/' << t->misses();
    return out.str();
}

/**
 * Results in both forms plus the TLB counts of one unobserved run of
 * @p cfg at @p batch (1 = the scalar loop) over a recording of
 * @p workload, with the optional latency collector @p lat, service
 * log @p log (RunHooks::record) and count of @p pipelined blocks.
 */
std::string
bareRun(const SimConfig &cfg, const std::string &workload,
        std::size_t batch, LatencyCollector *lat = nullptr,
        ServiceLog *log = nullptr, Counter *pipelined = nullptr)
{
    System sys(cfg);
    sys.setBatchSize(batch);
    sys.attachLatency(lat);
    sys.vm().recordService(log);
    ReplayCursor trace(std::make_shared<const RecordedTrace>(
        RecordedTrace::record(*makeWorkload(workload, cfg.seed), 25000)));
    Results r = sys.run(trace, 20000, workload, 5000);
    if (pipelined)
        *pipelined = sys.vm().pipelinedBlocks();
    return r.serialize().dump() + r.toJson().dump() + tlbCounts(sys.vm());
}

/** Every batched run of @p cfg equals its scalar run. */
void
expectSplitIdentity(const SimConfig &cfg, const std::string &workload,
                    const std::string &what)
{
    const std::string scalar = bareRun(cfg, workload, 1);
    for (std::size_t batch : {std::size_t{7}, Simulator::kDefaultBatch})
        EXPECT_EQ(scalar, bareRun(cfg, workload, batch))
            << kindName(cfg.kind) << ' ' << workload << ' ' << what
            << " batch " << batch;
}

SimConfig
splitConfig(SystemKind kind)
{
    SimConfig cfg = batchTestConfig(kind);
    cfg.ctxSwitchInterval = 0;
    return cfg;
}

TEST(SplitBlocks, IdenticalToScalarOnEveryWorkload)
{
    for (SystemKind kind : kSplitKinds)
        for (const char *wl : {"gcc", "vortex", "ijpeg"})
            expectSplitIdentity(splitConfig(kind), wl, "");
}

TEST(SplitBlocks, IdenticalToScalarUnderEveryTlbReplacement)
{
    for (SystemKind kind : kSplitKinds)
        for (TlbRepl repl : {TlbRepl::Random, TlbRepl::LRU, TlbRepl::FIFO}) {
            SimConfig cfg = splitConfig(kind);
            cfg.tlbRepl = repl;
            expectSplitIdentity(cfg, "gcc",
                                "repl " + std::to_string(int(repl)));
        }
}

TEST(SplitBlocks, IdenticalToScalarAcrossContextSwitches)
{
    for (SystemKind kind : kSplitKinds)
        for (unsigned asid : {0u, 8u}) {
            SimConfig cfg = splitConfig(kind);
            cfg.tlbAsidBits = asid;
            cfg.ctxSwitchInterval = 997;
            expectSplitIdentity(cfg, "vortex",
                                "asid " + std::to_string(asid));
        }
}

TEST(SplitBlocks, IdenticalToScalarWithASharedL2Tlb)
{
    for (SystemKind kind : kSplitKinds)
        for (unsigned cores : {1u, 2u, 4u}) {
            SimConfig cfg = splitConfig(kind);
            cfg.l2TlbEntries = 64;
            cfg.cores = cores;
            cfg.coreQuantum = 1500;
            cfg.ctxSwitchInterval = 997;
            expectSplitIdentity(cfg, "gcc",
                                "cores " + std::to_string(cores));
        }
}

/**
 * An 8-entry D-TLB behind a 128-entry I-TLB, with a 200-instruction
 * user handler: D-TLB misses are frequent inside long I-TLB-hit runs,
 * so the back end merges many handler fetches after their records'
 * user fetches (slot 2r + 1).
 */
std::unique_ptr<VmSystem>
smallDtlbVm(SystemKind kind, MemSystem &mem, PhysMem &pm)
{
    const bool partitioned = kind == SystemKind::Ultrix ||
                             kind == SystemKind::Mach ||
                             kind == SystemKind::HwMips;
    TlbParams i;
    i.protectedSlots = partitioned ? 16 : 0;
    TlbParams d;
    d.entries = 8;
    d.protectedSlots = partitioned ? 2 : 0;
    HandlerCosts costs = defaultHandlerCosts(kind);
    costs.userInstrs = 200;
    switch (kind) {
      case SystemKind::Ultrix:
        return std::make_unique<UltrixVm>(mem, pm, i, d, costs, 12, 5);
      case SystemKind::Mach:
        return std::make_unique<MachVm>(mem, pm, i, d, costs, 12, 5);
      case SystemKind::Intel:
        return std::make_unique<IntelVm>(mem, pm, i, d, costs, 12, 5);
      case SystemKind::Parisc:
        return std::make_unique<PariscVm>(mem, pm, i, d, costs, 12, 5);
      case SystemKind::HwInverted:
        return std::make_unique<HwInvertedVm>(mem, pm, i, d, costs, 12, 5);
      case SystemKind::HwMips:
        return std::make_unique<HwMipsVm>(mem, pm, i, d, costs, 12, 5);
      default:
        return std::make_unique<BaseVm>(mem);
    }
}

std::string
smallDtlbRun(SystemKind kind, std::size_t batch)
{
    MemSystem mem(CacheParams{16_KiB, 32}, CacheParams{1_MiB, 64}, 5);
    PhysMem pm(8_MiB, 12);
    auto vm = smallDtlbVm(kind, mem, pm);
    auto trace = makeWorkload("vortex", 5);
    Simulator sim(*vm, *trace);
    sim.setBatchSize(batch);
    sim.run(30000);
    return Results(vm->name(), "vortex", 30000, mem.stats(),
                   vm->vmStats(), CostModel{})
               .serialize()
               .dump() +
           tlbCounts(*vm);
}

TEST(SplitBlocks, HandlerFetchesReplayInScalarOrder)
{
    for (SystemKind kind : kSplitKinds) {
        const std::string scalar = smallDtlbRun(kind, 1);
        for (std::size_t batch : {std::size_t{7}, Simulator::kDefaultBatch})
            EXPECT_EQ(scalar, smallDtlbRun(kind, batch))
                << kindName(kind) << " batch " << batch;
    }
}

/**
 * 48 frames behind a 32-entry TLB (8 protected) on @p cores cores,
 * which share a 64-entry L2 TLB when there are several.
 */
SimConfig
budgetedSplitConfig(SystemKind kind, TlbRepl repl, ReclaimPolicy reclaim,
                    unsigned cores)
{
    SimConfig cfg = splitConfig(kind);
    cfg.physFrames = 48;
    cfg.reclaimPolicy = reclaim;
    cfg.tlbEntries = 32;
    cfg.tlbProtectedSlots = 8;
    cfg.tlbRepl = repl;
    cfg.cores = cores;
    cfg.coreQuantum = 1500;
    if (cores > 1)
        cfg.l2TlbEntries = 64;
    return cfg;
}

/**
 * Under a frame budget a D-TLB refill's eviction can drop an entry
 * from the core's own I-TLB; the front end sees it because it probes
 * in scalar order. 48 frames behind a 32-entry TLB keep evicting pages
 * the I-TLB holds. The grid crosses every I-TLB replacement policy
 * with every reclaim policy, at one core and at four cores sharing an
 * L2 TLB; a last leg adds context switches with ASID-tagged TLBs.
 * BASE, which touches no page, runs the back end alone.
 */
TEST(SplitBlocks, IdenticalToScalarUnderAFrameBudget)
{
    for (SystemKind kind : kSplitKinds) {
        for (TlbRepl repl : {TlbRepl::Random, TlbRepl::LRU, TlbRepl::FIFO})
            for (ReclaimPolicy reclaim :
                 {ReclaimPolicy::Fifo, ReclaimPolicy::Lru,
                  ReclaimPolicy::Clock})
                for (unsigned cores : {1u, 4u})
                    expectSplitIdentity(
                        budgetedSplitConfig(kind, repl, reclaim, cores),
                        "gcc",
                        "repl " + std::to_string(int(repl)) + " reclaim " +
                            reclaimPolicyName(reclaim) + " cores " +
                            std::to_string(cores));
        for (unsigned cores : {1u, 4u}) {
            SimConfig cfg = budgetedSplitConfig(kind, TlbRepl::LRU,
                                                ReclaimPolicy::Clock, cores);
            cfg.tlbAsidBits = 8;
            cfg.ctxSwitchInterval = 997;
            expectSplitIdentity(cfg, "vortex",
                                "asid 8 cores " + std::to_string(cores));
        }
    }
}

/**
 * Where splitLegal() is false a block keeps the per-record order: a
 * unified L2 (the observed body with no observer, also at four cores
 * under a frame budget) and a latency collector must match the scalar.
 */
TEST(SplitBlocks, FallbacksMatchScalar)
{
    for (SystemKind kind : kSplitKinds) {
        SimConfig unified = splitConfig(kind);
        unified.unifiedL2 = true;
        unified.l1 = CacheParams{8_KiB, 32};
        unified.l2 = CacheParams{32_KiB, 64};
        expectSplitIdentity(unified, "gcc", "unified L2");

        SimConfig budgeted = budgetedSplitConfig(
            kind, TlbRepl::LRU, ReclaimPolicy::Clock, 4);
        budgeted.unifiedL2 = true;
        budgeted.l1 = unified.l1;
        budgeted.l2 = unified.l2;
        expectSplitIdentity(budgeted, "gcc", "unified L2, 48 frames");

        SimConfig cfg = splitConfig(kind);
        LatencyCollector lat;
        EXPECT_EQ(bareRun(cfg, "gcc", 1),
                  bareRun(cfg, "gcc", Simulator::kDefaultBatch, &lat))
            << kindName(kind) << " latency";
    }
}

/** Runs with the back end forced inline and onto its worker agree. */
TEST(SplitBlocks, PipelinedIdenticalToInline)
{
    for (SystemKind kind : kSplitKinds)
        for (const char *wl : {"gcc", "vortex", "ijpeg"})
            for (auto [frames, reclaim] :
                 {std::pair{0u, ReclaimPolicy::Lru},
                  std::pair{48u, ReclaimPolicy::Lru},
                  std::pair{48u, ReclaimPolicy::Clock}})
                for (unsigned cores : {1u, 4u})
                    for (bool record : {false, true}) {
                        SimConfig cfg = budgetedSplitConfig(
                            kind, TlbRepl::LRU, reclaim, cores);
                        cfg.physFrames = frames;
                        std::string runs[2];
                        ServiceLog logs[2];
                        Counter blocks[2];
                        for (bool on : {false, true}) {
                            forceBackEndPipelineForTest(on);
                            runs[on] = bareRun(cfg, wl, 512, nullptr,
                                               record ? &logs[on] : nullptr,
                                               &blocks[on]);
                        }
                        forceBackEndPipelineForTest(std::nullopt);
                        EXPECT_TRUE(runs[0] == runs[1] &&
                                    logs[0].inst == logs[1].inst &&
                                    logs[0].data == logs[1].data)
                            << kindName(kind) << ' ' << wl << " frames "
                            << frames << ' ' << reclaimPolicyName(reclaim)
                            << " cores " << cores << " record " << record;
                        EXPECT_EQ(blocks[0], 0u);
                        // BASE has no front end to overlap.
                        EXPECT_EQ(blocks[1] > 0, kind != SystemKind::Base);
                    }
}

/**
 * A cancel mid-run ends a pipelined four-core budgeted run Canceled,
 * its worker drained before the recording it reads is freed.
 */
TEST(SplitBlocks, CancelStopsAPipelinedRun)
{
    std::atomic<bool> cancel{false};
    std::atomic<Counter> progress{0};
    forceBackEndPipelineForTest(true);
    System sys(budgetedSplitConfig(SystemKind::Mach, TlbRepl::LRU,
                                   ReclaimPolicy::Clock, 4));
    sys.attachCancel(&cancel);
    sys.attachProgress(&progress);
    std::thread trigger([&] {
        while (progress.load() < 4 * Simulator::kDefaultBatch)
            std::this_thread::yield();
        cancel.store(true);
    });
    auto gen = makeWorkload("gcc", 777);
    try {
        sys.run(*gen, 1'000'000, gen->name(), 0);
        ADD_FAILURE() << "the run was not canceled";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Canceled);
    }
    trigger.join();
    forceBackEndPipelineForTest(std::nullopt);
    EXPECT_GT(sys.vm().pipelinedBlocks(), 0u);
}

} // anonymous namespace
} // namespace vmsim
