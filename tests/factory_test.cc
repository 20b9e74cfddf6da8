/**
 * @file
 * Tests for the factory layer (per-system defaults of Table 1/Table 4)
 * and the diagnostic workloads' extreme-behavior guarantees.
 */

#include <gtest/gtest.h>

#include <set>

#include "base/logging.hh"
#include "common.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

// ---------------------------------------------------------------- factory

TEST(Factory, HandlerCostDefaultsMatchTable4)
{
    HandlerCosts ultrix = defaultHandlerCosts(SystemKind::Ultrix);
    EXPECT_EQ(ultrix.userInstrs, 10u);
    EXPECT_EQ(ultrix.rootInstrs, 20u);
    EXPECT_EQ(ultrix.adminLoads, 0u);

    HandlerCosts mach = defaultHandlerCosts(SystemKind::Mach);
    EXPECT_EQ(mach.userInstrs, 10u);
    EXPECT_EQ(mach.kernelInstrs, 20u);
    EXPECT_EQ(mach.rootInstrs, 500u);
    EXPECT_EQ(mach.adminLoads, 10u);

    HandlerCosts parisc = defaultHandlerCosts(SystemKind::Parisc);
    EXPECT_EQ(parisc.userInstrs, 20u);

    HandlerCosts intel = defaultHandlerCosts(SystemKind::Intel);
    EXPECT_EQ(intel.hwWalkCycles, 7u);

    HandlerCosts notlb = defaultHandlerCosts(SystemKind::Notlb);
    EXPECT_EQ(notlb.userInstrs, 10u);
    EXPECT_EQ(notlb.rootInstrs, 20u);
}

TEST(Factory, TlbPartitioningPerTable1)
{
    SimConfig cfg;
    cfg.tlbEntries = 128;
    cfg.tlbProtectedSlots = 16;
    // MIPS-likes get the partition...
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Mach,
                            SystemKind::HwMips}) {
        EXPECT_EQ(tlbParamsFor(kind, cfg).protectedSlots, 16u)
            << kindName(kind);
    }
    // ...the others are unpartitioned.
    for (SystemKind kind : {SystemKind::Intel, SystemKind::Parisc,
                            SystemKind::HwInverted}) {
        EXPECT_EQ(tlbParamsFor(kind, cfg).protectedSlots, 0u)
            << kindName(kind);
    }
    EXPECT_EQ(tlbParamsFor(SystemKind::Ultrix, cfg).entries, 128u);
}

TEST(Factory, TlbExtensionsPropagate)
{
    SimConfig cfg;
    cfg.tlbAssoc = 4;
    cfg.tlbAsidBits = 6;
    TlbParams p = tlbParamsFor(SystemKind::Intel, cfg);
    EXPECT_EQ(p.assoc, 4u);
    EXPECT_EQ(p.asidBits, 6u);
}

TEST(Factory, HandlerCostOverride)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = CacheParams{32_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    cfg.overrideHandlerCosts = true;
    cfg.handlerCosts.userInstrs = 33;
    System sys(cfg);
    sys.vm().dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(sys.vm().vmStats().uhandlerInstrs, 33u);
}

TEST(Factory, EverySystemKindConstructs)
{
    for (SystemKind kind : kAllKinds) {
        SimConfig cfg;
        cfg.kind = kind;
        cfg.l1 = CacheParams{32_KiB, 32};
        cfg.l2 = CacheParams{1_MiB, 64};
        System sys(cfg);
        EXPECT_STREQ(sys.vm().name().c_str(), kindName(kind));
        EXPECT_EQ(kindHasTlb(kind), sys.vm().itlb() != nullptr);
    }
}

// ---------------------------------------------------- diagnostic workloads

TEST(Diagnostics, FactoryNames)
{
    EXPECT_EQ(makeWorkload("stream")->name(), "stream-diagnostic");
    EXPECT_EQ(makeWorkload("chase")->name(), "chase-diagnostic");
    EXPECT_EQ(makeWorkload("uniform")->name(), "uniform-diagnostic");
}

/** Distinct data pages and lines touched over a reference window. */
struct Footprint
{
    std::size_t pages = 0;
    std::size_t lines = 0;
    Counter refs = 0;
};

Footprint
dataFootprint(const char *name, int n)
{
    auto w = makeWorkload(name, 11);
    TraceRecord r;
    std::set<std::uint32_t> pages, lines;
    Footprint f;
    for (int i = 0; i < n; ++i) {
        w->next(r);
        if (r.isMemOp()) {
            ++f.refs;
            pages.insert(r.daddr >> 12);
            lines.insert(r.daddr >> 6);
        }
    }
    f.pages = pages.size();
    f.lines = lines.size();
    return f;
}

TEST(Diagnostics, StreamHasPerfectSpatialLocality)
{
    Footprint f = dataFootprint("stream", 50000);
    // Sequential 4-byte strides: ~16 refs per 64B line.
    EXPECT_NEAR(static_cast<double>(f.refs) / f.lines, 16.0, 1.0);
}

TEST(Diagnostics, ChaseHasNoSpatialLocality)
{
    Footprint f = dataFootprint("chase", 50000);
    // Each reference lands on its own line (permutation cycle).
    EXPECT_GT(static_cast<double>(f.lines), 0.95 * f.refs);
    // And the page working set dwarfs a 128-entry TLB.
    EXPECT_GT(f.pages, 500u);
}

TEST(Diagnostics, ExtremesBoundTlbBehavior)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Intel;
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    Results stream = runOnce(cfg, "stream", 100000, 50000);
    Results chase = runOnce(cfg, "chase", 100000, 50000);
    Results uniform = runOnce(cfg, "uniform", 100000, 50000);
    // Chase is the TLB worst case, stream the best; uniform between.
    Counter s = stream.vmStats().hwWalks;
    Counter u = uniform.vmStats().hwWalks;
    Counter c = chase.vmStats().hwWalks;
    EXPECT_LT(s, u);
    EXPECT_LE(u, c);
    // Chase misses on nearly every data reference (~50% of instrs).
    EXPECT_GT(c, 100000u * 4 / 10);
}

TEST(Diagnostics, Deterministic)
{
    auto a = makeWorkload("uniform", 3);
    auto b = makeWorkload("uniform", 3);
    TraceRecord ra, rb;
    for (int i = 0; i < 5000; ++i) {
        a->next(ra);
        b->next(rb);
        ASSERT_EQ(ra, rb);
    }
}

} // anonymous namespace
} // namespace vmsim
