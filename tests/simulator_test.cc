/**
 * @file
 * Tests for the driver layer: Simulator semantics (accumulation,
 * trace-end, warmup), the System wrapper, prefetched generated runs,
 * the sweep grids, and the
 * VmSystem base-class helpers (handler fetch mechanics, handler
 * layout constants).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/intmath.hh"
#include "base/logging.hh"
#include "common.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "os/base_vm.hh"
#include "os/mach_vm.hh"
#include "os/ultrix_vm.hh"
#include "trace/prefetch.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

/** A trace of n no-op instructions at ascending PCs. */
class CountedTrace : public TraceSource
{
  public:
    explicit CountedTrace(Counter n) : left_(n) {}

    bool
    next(TraceRecord &rec) override
    {
        if (left_ == 0)
            return false;
        --left_;
        rec = TraceRecord{pc_, 0, MemOp::None};
        pc_ += 4;
        return true;
    }

  private:
    Counter left_;
    std::uint32_t pc_ = 0x00400000;
};

SimConfig
cfg(SystemKind kind = SystemKind::Base)
{
    SimConfig c;
    c.kind = kind;
    c.l1 = CacheParams{32_KiB, 32};
    c.l2 = CacheParams{1_MiB, 64};
    return c;
}

// -------------------------------------------------------------- Simulator

TEST(Simulator, RunsExactlyMaxInstrs)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    BaseVm vm(mem);
    CountedTrace trace(1000);
    Simulator sim(vm, trace);
    EXPECT_EQ(sim.run(600), 600u);
    EXPECT_EQ(sim.instructionsExecuted(), 600u);
}

TEST(Simulator, StopsAtTraceEnd)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    BaseVm vm(mem);
    CountedTrace trace(100);
    Simulator sim(vm, trace);
    EXPECT_EQ(sim.run(600), 100u);
    EXPECT_EQ(sim.run(600), 0u);
    EXPECT_EQ(sim.instructionsExecuted(), 100u);
}

TEST(Simulator, RepeatedRunsAccumulate)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    BaseVm vm(mem);
    CountedTrace trace(1000);
    Simulator sim(vm, trace);
    sim.run(100);
    sim.run(200);
    sim.run(300);
    EXPECT_EQ(sim.instructionsExecuted(), 600u);
    EXPECT_EQ(mem.stats().instOf(AccessClass::User).accesses, 600u);
}

TEST(Simulator, MemOpsReachDataSide)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    BaseVm vm(mem);
    std::vector<TraceRecord> recs = {
        {0x400000, 0x10000000, MemOp::Load},
        {0x400004, 0, MemOp::None},
        {0x400008, 0x10000004, MemOp::Store},
    };
    struct VecTrace : TraceSource
    {
        std::vector<TraceRecord> v;
        std::size_t i = 0;
        bool
        next(TraceRecord &rec) override
        {
            if (i >= v.size())
                return false;
            rec = v[i++];
            return true;
        }
    } trace;
    trace.v = recs;
    Simulator sim(vm, trace);
    sim.run(10);
    EXPECT_EQ(mem.stats().dataOf(AccessClass::User).accesses, 2u);
    EXPECT_EQ(mem.storeCount(), 1u);
}

TEST(Simulator, ContextSwitchCountAcrossRuns)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    CountedTrace trace(10000);
    Simulator sim(vm, trace, 100);
    sim.run(500); // 5 switches
    sim.run(500); // interval state persists across run() calls
    EXPECT_EQ(vm.vmStats().ctxSwitches, 10u);
}

// ----------------------------------------------------------------- System

TEST(System, WarmupDiscardsStatsButKeepsState)
{
    System sys(cfg(SystemKind::Ultrix));
    GccLikeWorkload trace(9);
    Results r = sys.run(trace, 20000, "gcc", 20000);
    // Only measured instructions count.
    EXPECT_EQ(r.userInstrs(), 20000u);
    // Warm TLBs/caches: far fewer events than a cold 20K run.
    System cold(cfg(SystemKind::Ultrix));
    GccLikeWorkload trace2(9);
    Results rc = cold.run(trace2, 20000, "gcc", 0);
    EXPECT_LT(r.vmStats().uhandlerCalls, rc.vmStats().uhandlerCalls);
}

TEST(System, AccessorsExposeParts)
{
    System sys(cfg(SystemKind::Parisc));
    EXPECT_EQ(sys.vm().name(), "PA-RISC");
    EXPECT_EQ(sys.physMem().sizeBytes(), 8_MiB);
    EXPECT_EQ(sys.config().kind, SystemKind::Parisc);
    EXPECT_EQ(sys.instructionsExecuted(), 0u);
}

TEST(System, RunOnceDefaultWarmupIsQuarter)
{
    // runOnce's default warmup = instrs / 4; verify indirectly: the
    // returned instruction count is the measured count only.
    Results r = runOnce(cfg(SystemKind::Base), "ijpeg", 8000);
    EXPECT_EQ(r.userInstrs(), 8000u);
}

TEST(System, SweepCellMatchesRunOnce)
{
    Results a = sweepCell(cfg(SystemKind::Intel), "gcc", 20000);
    Results b = runOnce(cfg(SystemKind::Intel), "gcc", 20000);
    EXPECT_DOUBLE_EQ(a.totalCpi(), b.totalCpi());
}

// ------------------------------------------------------- prefetched runs

/** Results::serialize() of a run and of every sampled interval. */
std::string
serialized(const Results &r, const IntervalSampler &sampler)
{
    std::string s = r.serialize().dump();
    for (const IntervalRecord &iv : sampler.intervals())
        s.append("|").append(iv.results.serialize().dump());
    return s;
}

std::string
systemRun(const SimConfig &c, TraceSource &src, std::size_t batch,
          Counter instrs, Counter warmup)
{
    System sys(c);
    IntervalSampler sampler(3000);
    sys.attachSampler(&sampler);
    sys.setBatchSize(batch);
    return serialized(sys.run(src, instrs, "gcc-like", warmup), sampler);
}

TEST(PrefetchedRun, MatchesTheBareGeneratorOnEveryOrganization)
{
    const Counter instrs = 20000;
    const Counter warmup = 5000;
    for (SystemKind kind : kAllKinds) {
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{0}}) {
            SCOPED_TRACE(std::string(kindName(kind)) + " batch " +
                         std::to_string(batch));
            SimConfig c = cfg(kind);
            c.seed = 12345;
            c.ctxSwitchInterval = 2500;
            auto gen = makeWorkload("gcc", c.seed);
            const std::string bare =
                systemRun(c, *gen, batch, instrs, warmup);

            // runOnce prefetches when the host has a thread to spare.
            IntervalSampler sampler(3000);
            RunHooks hooks;
            hooks.sampler = &sampler;
            hooks.batch = batch;
            EXPECT_EQ(serialized(runOnce(c, "gcc", instrs, warmup, hooks),
                                 sampler),
                      bare);

            // The decorator itself, whatever the host's thread count.
            PrefetchedTrace pre(makeWorkload("gcc", c.seed),
                                warmup + instrs);
            EXPECT_EQ(systemRun(c, pre, batch, instrs, warmup), bare);
        }
    }
}

TEST(PrefetchedRun, LiveGeneratorPrefetchesOnlyAffordableSingleCoreRuns)
{
    SimConfig c = cfg(SystemKind::Ultrix);
    const bool affordable = helperThreadFree();
    auto gen = makeWorkload("gcc", 1);
    TraceSource *raw = gen.get();
    auto live = liveGenerator(std::move(gen), c, 1000);
    EXPECT_EQ(live.get() == raw, !affordable);
    EXPECT_EQ(dynamic_cast<PrefetchedTrace *>(live.get()) != nullptr,
              affordable);

    // Multicore runs record their trace first: never prefetched.
    c.cores = 4;
    gen = makeWorkload("gcc", 1);
    raw = gen.get();
    EXPECT_EQ(liveGenerator(std::move(gen), c, 1000).get(), raw);
}

TEST(PrefetchedRun, RunsInFlightCountsRunOnceCalls)
{
    EXPECT_EQ(runsInFlight(), 0u);
    unsigned seen = 0;
    RunHooks hooks;
    hooks.makeTrace = [&seen] {
        seen = runsInFlight();
        auto gen = makeWorkload("ijpeg", 1);
        std::string name = gen->name();
        return NamedTraceSource{std::move(gen), std::move(name)};
    };
    runOnce(cfg(), "ijpeg", 4000, 1000, hooks);
    EXPECT_EQ(seen, 1u);
    EXPECT_EQ(runsInFlight(), 0u);

    hooks.makeTrace = nullptr;
    hooks.audit = [](const Results &) {
        throw std::runtime_error("audit failed");
    };
    EXPECT_THROW(runOnce(cfg(), "ijpeg", 4000, 1000, hooks),
                 std::runtime_error);
    EXPECT_EQ(runsInFlight(), 0u);
}

TEST(PrefetchedRun, FailedRunsStopTheProducer)
{
    // Each run fails with the prefetched source mid-stream: before the
    // first record (System construction), at the first cancel poll,
    // and after the run (a throwing audit). Each must return, with no
    // producer left behind.
    const Counter instrs = 2'000'000;
    SimConfig bad = cfg();
    bad.l1 = CacheParams{3000, 32};
    EXPECT_THROW(runOnce(bad, "gcc", instrs), VmsimError);

    std::atomic<bool> cancel{true};
    RunHooks hooks;
    hooks.cancel = &cancel;
    EXPECT_THROW(runOnce(cfg(), "gcc", instrs, 0, hooks), VmsimError);

    hooks.cancel = nullptr;
    hooks.audit = [](const Results &) {
        throw std::runtime_error("audit failed");
    };
    EXPECT_THROW(runOnce(cfg(), "gcc", 20000, 0, hooks),
                 std::runtime_error);
    EXPECT_EQ(runsInFlight(), 0u);
}

// ------------------------------------------------------------ sweep grids

TEST(SweepGrids, FullGridsMatchTable1)
{
    auto l1 = paperL1Sizes(true);
    std::vector<std::uint64_t> expect_l1 = {1_KiB,  2_KiB,  4_KiB,
                                            8_KiB,  16_KiB, 32_KiB,
                                            64_KiB, 128_KiB};
    EXPECT_EQ(l1, expect_l1);

    auto l2 = paperL2Sizes(true);
    std::vector<std::uint64_t> expect_l2 = {1_MiB, 2_MiB, 4_MiB};
    EXPECT_EQ(l2, expect_l2);

    auto ints = paperInterruptCosts();
    std::vector<Cycles> expect_ints = {10, 50, 200};
    EXPECT_EQ(ints, expect_ints);
}

TEST(SweepGrids, ReducedGridsAreSubsets)
{
    auto full = paperL1Sizes(true);
    for (auto v : paperL1Sizes(false))
        EXPECT_NE(std::find(full.begin(), full.end(), v), full.end());
    auto full_lines = paperLineSizes(true);
    for (auto combo : paperLineSizes(false))
        EXPECT_NE(std::find(full_lines.begin(), full_lines.end(), combo),
                  full_lines.end());
}

TEST(SweepGrids, LineCombosRespectHierarchy)
{
    for (bool full : {false, true})
        for (auto [a, b] : paperLineSizes(full)) {
            EXPECT_LE(a, b);
            EXPECT_TRUE(isPowerOf2(a));
            EXPECT_TRUE(isPowerOf2(b));
        }
}

// ----------------------------------------------------- VmSystem mechanics

TEST(VmSystemBase, HandlerBasesArePageAlignedAndDistinct)
{
    EXPECT_TRUE(isAligned(kUserHandlerBase, 4096));
    EXPECT_TRUE(isAligned(kKernelHandlerBase, 4096));
    EXPECT_TRUE(isAligned(kRootHandlerBase, 4096));
    EXPECT_NE(kUserHandlerBase >> 12, kKernelHandlerBase >> 12);
    EXPECT_NE(kKernelHandlerBase >> 12, kRootHandlerBase >> 12);
    // All in unmapped (kernel-half) space.
    EXPECT_GE(kUserHandlerBase, kPhysWindowBase);
}

TEST(VmSystemBase, MachRootHandlerFitsItsPage)
{
    // The 500-instruction MACH root handler must stay within one 4 KB
    // page (500 * 4 = 2000 bytes) so handler pages never overlap.
    EXPECT_LE(MachVm::machDefaultCosts().rootInstrs * kInstrBytes,
              4096u);
}

TEST(VmSystemBase, FetchHandlerTouchesSequentialWords)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.dataRef(Access{0x10000000, 0, false}); // user (10) + root (20) handlers
    // 30 sequential 4-byte fetches over 32-byte lines, two distinct
    // page-aligned bases: ceil(40/32) + ceil(80/32) line fills.
    const auto &hf = mem.stats().instOf(AccessClass::HandlerFetch);
    EXPECT_EQ(hf.accesses, 30u);
    EXPECT_EQ(hf.l1Misses, divCeil(10 * 4, 32) + divCeil(20 * 4, 32));
}


TEST(SweepSeeds, RunSeedsSummarizesReplications)
{
    SimConfig c = cfg(SystemKind::Ultrix);
    c.tlbEntries = 32; // small TLB: random replacement adds variance
    c.tlbProtectedSlots = 8;
    SeedStats s = runSeeds(c, "vortex", 20000, 5000, 4,
                           [](const Results &r) { return r.vmcpi(); });
    EXPECT_EQ(s.seeds, 4u);
    EXPECT_GT(s.mean, 0.0);
    EXPECT_GE(s.max, s.mean);
    EXPECT_LE(s.min, s.mean);
    EXPECT_GE(s.stddev, 0.0);
}

TEST(SweepSeeds, SingleSeedHasZeroSpread)
{
    SeedStats s = runSeeds(cfg(SystemKind::Base), "ijpeg", 10000, 2000,
                           1, [](const Results &r) {
                               return r.totalCpi();
                           });
    EXPECT_EQ(s.seeds, 1u);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.min, s.max);
}

TEST(SweepSeeds, ZeroSeedsRejected)
{
    setQuiet(true);
    EXPECT_THROW(runSeeds(cfg(), "gcc", 1000, 0, 0,
                          [](const Results &r) { return r.mcpi(); }),
                 FatalError);
    setQuiet(false);
}

} // anonymous namespace
} // namespace vmsim
