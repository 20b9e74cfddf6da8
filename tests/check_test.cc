/**
 * @file
 * Tests for the invariant-checking layer: CheckReport mechanics, the
 * InvariantChecker's counter/event/interval audits across all nine
 * organizations, counter-vector diffing, the partial-run conservation
 * law under cancellation, and the live-TLB laws.
 */

#include <gtest/gtest.h>

#include <atomic>

#include "base/intmath.hh"
#include "check/invariants.hh"
#include "counter_values.hh"
#include "core/simulator.hh"
#include "obs/event.hh"
#include "obs/interval.hh"
#include "os/ultrix_vm.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

SimConfig
cfg(SystemKind kind)
{
    SimConfig c;
    c.kind = kind;
    c.l1 = CacheParams{16_KiB, 32};
    c.l2 = CacheParams{1_MiB, 64};
    return c;
}

constexpr SystemKind kAllKinds[] = {
    SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
    SystemKind::Parisc, SystemKind::Notlb,      SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

// ------------------------------------------------------------ CheckReport

TEST(CheckReport, RecordsViolationsAndCounts)
{
    CheckReport rep;
    EXPECT_TRUE(rep.check(true, "law.pass", "unused"));
    EXPECT_FALSE(rep.check(false, "law.fail", "got ", 3, " want ", 4));
    EXPECT_EQ(rep.lawsChecked(), 2u);
    EXPECT_FALSE(rep.ok());
    ASSERT_EQ(rep.violations().size(), 1u);
    EXPECT_EQ(rep.violations()[0].law, "law.fail");
    EXPECT_EQ(rep.violations()[0].message, "got 3 want 4");
}

TEST(CheckReport, MergePrefixedTagsLeg)
{
    CheckReport inner;
    inner.check(false, "counter.mismatch", "detail");
    CheckReport outer;
    outer.mergePrefixed(inner, "batched.");
    ASSERT_EQ(outer.violations().size(), 1u);
    EXPECT_EQ(outer.violations()[0].law, "batched.counter.mismatch");
    EXPECT_EQ(outer.lawsChecked(), 1u);
}

TEST(CheckReport, OrThrowRaisesInternal)
{
    CheckReport rep;
    rep.check(true, "ok", "");
    EXPECT_NO_THROW(rep.orThrow());
    rep.check(false, "broken", "x != y");
    try {
        rep.orThrow();
        FAIL() << "orThrow did not throw";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.error().code, ErrorCode::Internal);
    }
}

// ------------------------------------------------------ InvariantChecker

TEST(InvariantChecker, AllNineOrganizationsPassCounterAudit)
{
    for (SystemKind kind : kAllKinds) {
        SimConfig c = cfg(kind);
        Results r = runOnce(c, "gcc", 20000, 5000);
        CheckReport rep = InvariantChecker(c).check(r);
        EXPECT_TRUE(rep.ok()) << kindName(kind) << ": "
                              << rep.toString();
        EXPECT_GT(rep.lawsChecked(), 20u);
    }
}

TEST(InvariantChecker, FullAuditWithEventsAndIntervals)
{
    SimConfig c = cfg(SystemKind::Mach);
    c.ctxSwitchInterval = 997;
    c.tlbAsidBits = 6;
    c.l2TlbEntries = 256;
    CollectingSink sink;
    IntervalSampler sampler(3000);
    RunHooks hooks;
    hooks.sink = &sink;
    hooks.sampler = &sampler;
    Results r = runOnce(c, "vortex", 24000, 6000, hooks);
    CheckReport rep = InvariantChecker(c).checkAll(
        r, &sink.events(), &sampler.intervals());
    EXPECT_TRUE(rep.ok()) << rep.toString();
    // The event and interval laws actually ran.
    EXPECT_GT(rep.lawsChecked(),
              InvariantChecker(c).check(r).lawsChecked());
}

TEST(InvariantChecker, DetectsCorruptedVmCounter)
{
    SimConfig c = cfg(SystemKind::Ultrix);
    Results r = runOnce(c, "gcc", 20000, 5000);
    VmStats vm = r.vmStats();
    ++vm.pteLoads; // conservation now broken
    Results bad(r.system(), r.workload(), r.userInstrs(), r.memStats(),
                vm, r.costs());
    EXPECT_FALSE(InvariantChecker(c).check(bad).ok());
}

TEST(InvariantChecker, DetectsCorruptedMemCounter)
{
    SimConfig c = cfg(SystemKind::Intel);
    Results r = runOnce(c, "ijpeg", 20000, 5000);
    MemSystemStats mem = r.memStats();
    // One phantom fetch breaks accesses == userInstrs.
    ++mem.inst[static_cast<unsigned>(AccessClass::User)].accesses;
    Results bad(r.system(), r.workload(), r.userInstrs(), mem,
                r.vmStats(), r.costs());
    EXPECT_FALSE(InvariantChecker(c).check(bad).ok());
}

// ------------------------------------------------------------ diffResults

TEST(DiffResults, IdenticalRunsAgree)
{
    SimConfig c = cfg(SystemKind::Parisc);
    Results a = runOnce(c, "gcc", 15000, 3000);
    Results b = runOnce(c, "gcc", 15000, 3000);
    CheckReport rep = diffResults(a, b, "first", "second");
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(DiffResults, DetectsDivergence)
{
    SimConfig c = cfg(SystemKind::Parisc);
    Results a = runOnce(c, "gcc", 15000, 3000);
    SimConfig c2 = c;
    c2.seed = c.seed + 1; // different trace → different counters
    Results b = runOnce(c2, "gcc", 15000, 3000);
    EXPECT_FALSE(diffResults(a, b, "first", "second").ok());
}

/** Changing any one counter is exactly one violation naming it. */
TEST(DiffResults, EachCounterDivergesAsOneNamedViolation)
{
    const Results a("TEST", "hand", 1000, MemSystemStats{},
                    distinctVmStats(), CostModel{});
    auto diffWith = [&](const VmStats &vm) {
        return diffResults(a,
                           Results("TEST", "hand", 1000, MemSystemStats{},
                                   vm, CostModel{}),
                           "a", "b");
    };
    EXPECT_TRUE(diffWith(distinctVmStats()).ok());
    for (const VmStatsField &f : kVmStatsFields) {
        VmStats vm = distinctVmStats();
        vm.*f.field += 1;
        CheckReport rep = diffWith(vm);
        ASSERT_EQ(rep.violations().size(), 1u) << f.key;
        EXPECT_EQ(rep.violations()[0].law, "diff.vm-counter");
        EXPECT_EQ(rep.violations()[0].message.rfind(
                      std::string(f.key) + ": ", 0),
                  0u)
            << rep.violations()[0].message;
    }
    for (std::size_t c = 0; c < 2; ++c) {
        for (const CoreStatsField &f : kCoreStatsFields) {
            VmStats vm = distinctVmStats();
            vm.perCore[c].*f.field += 1;
            CheckReport rep = diffWith(vm);
            ASSERT_EQ(rep.violations().size(), 1u) << f.key;
            EXPECT_EQ(rep.violations()[0].law, "diff.core-counter");
            const std::string &msg = rep.violations()[0].message;
            EXPECT_EQ(msg.rfind("core " + std::to_string(c) + ": " +
                                    f.key + ": ",
                                0),
                      0u)
                << msg;
        }
    }
}

// ------------------------------------------------------ cross-cell laws

/**
 * checkCacheIndependence() over runs of @p kind on @p workload across
 * every axis a shared front end's key drops: L1 {4K, 64K} x L2 {256K,
 * 1M}, line sizes 64/128, 2-way LRU and 2-way Random caches, and a
 * non-default CostModel.
 */
CheckReport
cacheGridReport(SystemKind kind, const std::string &workload)
{
    std::vector<SimConfig> grid;
    for (std::uint64_t l1 : {4_KiB, 64_KiB}) {
        for (std::uint64_t l2 : {256_KiB, 1_MiB}) {
            SimConfig c = cfg(kind);
            c.l1 = CacheParams{l1, 32};
            c.l2 = CacheParams{l2, 64};
            grid.push_back(c);
        }
    }
    SimConfig c = cfg(kind);
    c.l1 = CacheParams{16_KiB, 64};
    c.l2 = CacheParams{1_MiB, 128};
    grid.push_back(c);
    c.l1 = CacheParams{16_KiB, 32, 2, CacheRepl::LRU};
    c.l2 = CacheParams{512_KiB, 64, 2, CacheRepl::LRU};
    grid.push_back(c);
    c.l1 = CacheParams{16_KiB, 64, 2, CacheRepl::Random};
    c.l2 = CacheParams{512_KiB, 128, 2, CacheRepl::Random};
    grid.push_back(c);
    c = cfg(kind);
    c.costs = CostModel{10, 200, 200, 0.5};
    grid.push_back(c);

    std::vector<Results> cells;
    std::vector<std::string> labels;
    for (const SimConfig &g : grid) {
        cells.push_back(runOnce(g, workload, 100000, 20000));
        labels.push_back("L1 " + g.l1.toString() + " L2 " +
                         g.l2.toString() + " int " +
                         std::to_string(g.costs.interruptCycles));
    }
    return checkCacheIndependence(cells, labels);
}

TEST(CacheIndependence, VmCountersIgnoreCacheGeometry)
{
    for (SystemKind kind : kAllKinds) {
        if (!cacheBlindVm(kind))
            continue;
        for (const char *wl : {"gcc", "vortex", "ijpeg"}) {
            CheckReport rep = cacheGridReport(kind, wl);
            EXPECT_TRUE(rep.ok()) << kindName(kind) << ' ' << wl << ": "
                                  << rep.toString();
            EXPECT_GT(rep.lawsChecked(), 0u);
        }
    }
}

TEST(CacheIndependence, NotlbAndSpurRefillOnCacheMisses)
{
    // The two excluded organizations really do break the law, so the
    // law can fail and the exclusion is needed.
    for (SystemKind kind : {SystemKind::Notlb, SystemKind::Spur}) {
        EXPECT_FALSE(cacheBlindVm(kind)) << kindName(kind);
        EXPECT_FALSE(cacheGridReport(kind, "vortex").ok())
            << kindName(kind);
    }
}

/** cfg(@p kind) with LRU TLB replacement. */
SimConfig
lruCfg(SystemKind kind)
{
    SimConfig c = cfg(kind);
    c.tlbRepl = TlbRepl::LRU;
    return c;
}

/**
 * checkStackInclusion() over one run of @p kind on @p workload per TLB
 * size {32, 64, 128, 256}, single core with LRU fully associative TLBs.
 * @p configure may break a precondition.
 */
CheckReport
tlbSizeReport(SystemKind kind, const std::string &workload,
              void (*configure)(SimConfig &) = nullptr)
{
    std::vector<SimConfig> configs;
    std::vector<Results> cells;
    for (unsigned entries : {32u, 64u, 128u, 256u}) {
        SimConfig c = lruCfg(kind);
        c.tlbEntries = entries;
        if (configure)
            configure(c);
        configs.push_back(c);
        cells.push_back(runOnce(c, workload, 100000, 20000));
    }
    return checkStackInclusion(configs, cells);
}

TEST(StackInclusion, LruTlbMissesNeverRiseWithTlbSize)
{
    unsigned applied = 0;
    for (SystemKind kind : kAllKinds) {
        if (!stackInclusionApplies(lruCfg(kind)))
            continue;
        ++applied;
        for (const char *wl : {"gcc", "vortex"}) {
            CheckReport rep = tlbSizeReport(kind, wl);
            EXPECT_TRUE(rep.ok()) << kindName(kind) << ' ' << wl << ": "
                                  << rep.toString();
            EXPECT_EQ(rep.lawsChecked(), 1u + 4u + 3u * 3u);
        }
    }
    EXPECT_EQ(applied, 3u);
}

TEST(StackInclusion, NamesItsOrganizationsAndPreconditions)
{
    // The walks of the MIPS-like organizations load UPTEs through the
    // D-TLB, and the TLB-less ones have no TLB to size.
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Mach,
                            SystemKind::HwMips, SystemKind::Notlb,
                            SystemKind::Base, SystemKind::Spur})
        EXPECT_FALSE(stackInclusionApplies(lruCfg(kind))) << kindName(kind);
    // Random replacement is outside the law, and so is a grid that
    // does not grow.
    CheckReport random = tlbSizeReport(
        SystemKind::Intel, "gcc",
        [](SimConfig &c) { c.tlbRepl = TlbRepl::Random; });
    EXPECT_FALSE(random.ok());
    EXPECT_NE(random.toString().find("stack-inclusion.config"),
              std::string::npos);
    SimConfig c = lruCfg(SystemKind::Intel);
    Results r = runOnce(c, "gcc", 10000, 0);
    CheckReport same = checkStackInclusion({c, c}, {r, r});
    EXPECT_NE(same.toString().find("stack-inclusion.order"),
              std::string::npos);
}

// ------------------------------------- cancellation conservation (partial)

/**
 * Forwards an inner trace and trips @p token after @p after records,
 * so the simulator's next cancel poll fires mid-run deterministically.
 */
class TripwireTrace : public TraceSource
{
  public:
    TripwireTrace(TraceSource &inner, std::atomic<bool> &token,
                  Counter after)
        : inner_(inner), token_(token), after_(after)
    {}

    bool
    next(TraceRecord &rec) override
    {
        if (++seen_ > after_)
            token_.store(true, std::memory_order_relaxed);
        return inner_.next(rec);
    }

  private:
    TraceSource &inner_;
    std::atomic<bool> &token_;
    Counter after_;
    Counter seen_ = 0;
};

TEST(Cancellation, ScalarPollAtZeroRetiresNothing)
{
    System sys(cfg(SystemKind::Ultrix));
    GccLikeWorkload trace(9);
    std::atomic<bool> token{true}; // canceled before the first poll
    Simulator sim(sys.vm(), trace, 0);
    sim.setBatchSize(1);
    sim.setCancel(&token);
    EXPECT_THROW(sim.run(10000), VmsimError);
    EXPECT_EQ(sim.instructionsExecuted(), 0u);
    // The record the loop condition consumed was never executed: the
    // memory system saw zero instruction fetches.
    CheckReport rep = checkExecutedConservation(
        sim.instructionsExecuted(), sys.mem().stats());
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_EQ(sys.mem().stats().instOf(AccessClass::User).accesses, 0u);
}

TEST(Cancellation, ScalarMidRunConservesExecuted)
{
    System sys(cfg(SystemKind::Ultrix));
    GccLikeWorkload inner(9);
    std::atomic<bool> token{false};
    TripwireTrace trace(inner, token, 100);
    Simulator sim(sys.vm(), trace, 0);
    sim.setBatchSize(1);
    sim.setCancel(&token);
    EXPECT_THROW(sim.run(10000), VmsimError);
    // Tripped at record 100; the scalar loop polls every 2048
    // instructions, so exactly 2048 retired.
    EXPECT_EQ(sim.instructionsExecuted(), 2048u);
    CheckReport rep = checkExecutedConservation(
        sim.instructionsExecuted(), sys.mem().stats());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

TEST(Cancellation, BatchedMidRunConservesExecuted)
{
    System sys(cfg(SystemKind::Mach));
    GccLikeWorkload inner(9);
    std::atomic<bool> token{false};
    TripwireTrace trace(inner, token, 100);
    Simulator sim(sys.vm(), trace, 0);
    sim.setBatchSize(64);
    sim.setCancel(&token);
    EXPECT_THROW(sim.run(10000), VmsimError);
    // Tripped inside the second batch (record 100 of 64-record
    // batches); the poll at the third batch head cancels with every
    // fetched-and-executed batch fully retired.
    EXPECT_EQ(sim.instructionsExecuted(), 128u);
    CheckReport rep = checkExecutedConservation(
        sim.instructionsExecuted(), sys.mem().stats());
    EXPECT_TRUE(rep.ok()) << rep.toString();
}

// --------------------------------------------------------------- live TLB

TEST(LiveTlb, FreshWarmupFreeRunSatisfiesTlbLaws)
{
    SimConfig c = cfg(SystemKind::Ultrix);
    System sys(c);
    GccLikeWorkload trace(c.seed);
    Results r = sys.run(trace, 20000, "gcc", 0);
    CheckReport rep;
    checkLiveTlb(sys.vm(), r.userInstrs(), rep);
    EXPECT_TRUE(rep.ok()) << rep.toString();
    EXPECT_GT(rep.lawsChecked(), 0u);
}

TEST(LivePhysMem, BudgetedRunsKeepEveryFrameAccountedFor)
{
    // 48 frames: PA-RISC and HW-INVERTED recycle the frames their
    // hashed tables assign, and the index behind them doubles several
    // times on the way.
    for (SystemKind kind : kAllKinds) {
        SimConfig c = cfg(kind);
        c.physFrames = 48;
        c.reclaimPolicy = ReclaimPolicy::Lru;
        System sys(c);
        GccLikeWorkload trace(c.seed);
        sys.run(trace, 30000, "gcc", 5000);
        CheckReport rep;
        checkLivePhysMem(sys.physMem(), rep);
        EXPECT_TRUE(rep.ok()) << kindName(kind) << ": " << rep.toString();
        EXPECT_EQ(rep.lawsChecked(), 1u);
        if (kind == SystemKind::Parisc || kind == SystemKind::HwInverted) {
            EXPECT_GT(sys.vm().vmStats().evictions, 0u) << kindName(kind);
        }
    }
}

} // anonymous namespace
} // namespace vmsim
