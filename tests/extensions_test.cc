/**
 * @file
 * Tests for the extension features beyond the paper's core study:
 * unified L2, Pentium-Pro-style walk overlap, context-switch flushes,
 * and the user TLB-miss counters.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "mem/mem_system.hh"
#include "os/intel_vm.hh"
#include "os/notlb_vm.hh"
#include "os/ultrix_vm.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

CacheParams l1() { return CacheParams{32_KiB, 32}; }
CacheParams l2() { return CacheParams{1_MiB, 64}; }

// ------------------------------------------------------------ unified L2

TEST(UnifiedL2, SharedCacheSeesBothSides)
{
    MemSystem m(CacheParams{1_KiB, 32}, CacheParams{8_KiB, 64}, 1, true);
    EXPECT_TRUE(m.unifiedL2());
    // Unified L2 has twice the per-side capacity.
    EXPECT_EQ(m.l2i().params().sizeBytes, 16_KiB);
    EXPECT_EQ(&m.l2i(), &m.l2d());
    // A line brought in by a data access hits on the inst side at L2
    // (after an L1i miss), because the L2 is shared.
    m.dataAccess(0x4000, 4, false, AccessClass::User);
    EXPECT_EQ(m.instFetch(0x4000, AccessClass::User), MemLevel::L2);
}

TEST(UnifiedL2, SplitCachesDoNotShare)
{
    MemSystem m(CacheParams{1_KiB, 32}, CacheParams{8_KiB, 64}, 1, false);
    EXPECT_FALSE(m.unifiedL2());
    EXPECT_NE(&m.l2i(), &m.l2d());
    m.dataAccess(0x4000, 4, false, AccessClass::User);
    EXPECT_EQ(m.instFetch(0x4000, AccessClass::User), MemLevel::Memory);
}

TEST(UnifiedL2, InvalidateAllCoversSharedCache)
{
    MemSystem m(CacheParams{1_KiB, 32}, CacheParams{8_KiB, 64}, 1, true);
    m.dataAccess(0x4000, 4, false, AccessClass::User);
    m.invalidateAll();
    EXPECT_EQ(m.dataAccess(0x4000, 4, false, AccessClass::User),
              MemLevel::Memory);
}

TEST(UnifiedL2, EndToEndThroughConfig)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Base;
    cfg.l1 = l1();
    cfg.l2 = l2();
    cfg.unifiedL2 = true;
    Results r = runOnce(cfg, "gcc", 50000, 10000);
    EXPECT_GT(r.totalCpi(), 1.0);
}

// ----------------------------------------------------------- FSM overlap

TEST(HwWalkOverlap, FullOverlapHidesFsmCycles)
{
    MemSystemStats mem;
    VmStats vm;
    vm.hwWalks = 10;
    vm.hwWalkCycles = 70;
    CostModel base_costs;
    CostModel hidden = base_costs;
    hidden.hwWalkOverlap = 1.0;
    Results visible("X", "y", 1000, mem, vm, base_costs);
    Results overlapped("X", "y", 1000, mem, vm, hidden);
    EXPECT_DOUBLE_EQ(visible.vmcpiBreakdown().uhandler, 0.07);
    EXPECT_DOUBLE_EQ(overlapped.vmcpiBreakdown().uhandler, 0.0);
}

TEST(HwWalkOverlap, PartialOverlapScalesLinearly)
{
    MemSystemStats mem;
    VmStats vm;
    vm.hwWalkCycles = 100;
    CostModel costs;
    costs.hwWalkOverlap = 0.25;
    Results r("X", "y", 1000, mem, vm, costs);
    EXPECT_DOUBLE_EQ(r.vmcpiBreakdown().uhandler, 0.075);
}

TEST(HwWalkOverlap, DoesNotAffectSoftwareHandlers)
{
    MemSystemStats mem;
    VmStats vm;
    vm.uhandlerInstrs = 50;
    CostModel costs;
    costs.hwWalkOverlap = 1.0;
    Results r("X", "y", 1000, mem, vm, costs);
    EXPECT_DOUBLE_EQ(r.vmcpiBreakdown().uhandler, 0.05);
}

TEST(HwWalkOverlap, OutOfRangeRejected)
{
    setQuiet(true);
    SimConfig cfg;
    cfg.costs.hwWalkOverlap = 1.5;
    EXPECT_FALSE(cfg.validate().ok());
    EXPECT_THROW(System{cfg}, FatalError);
    cfg.costs.hwWalkOverlap = -0.1;
    EXPECT_FALSE(cfg.validate().ok());
    setQuiet(false);
}

// -------------------------------------------------------- context switch

TEST(ContextSwitch, FlushesTlbsOnTlbSystems)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.dataRef(Access{0x10000000, 0, false});
    ASSERT_GT(vm.dtlb()->validEntries(), 0u);
    vm.contextSwitch();
    EXPECT_EQ(vm.dtlb()->validEntries(), 0u);
    EXPECT_EQ(vm.itlb()->validEntries(), 0u);
    EXPECT_EQ(vm.vmStats().ctxSwitches, 1u);
}

TEST(ContextSwitch, NoTranslationStateOnGlobalSpaceSystems)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    NotlbVm vm(mem, pm);
    vm.dataRef(Access{0x10000000, 0, false});
    VmStats before = vm.vmStats();
    vm.contextSwitch();
    EXPECT_EQ(vm.vmStats().ctxSwitches, 1u);
    // Still warm: the very next reference hits without a handler.
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().uhandlerCalls, before.uhandlerCalls);
}

TEST(ContextSwitch, SimulatorHonorsInterval)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    GccLikeWorkload trace(1);
    Simulator sim(vm, trace, 1000);
    sim.run(10000);
    EXPECT_EQ(vm.vmStats().ctxSwitches, 10u);
}

TEST(ContextSwitch, ZeroIntervalNeverSwitches)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    GccLikeWorkload trace(1);
    Simulator sim(vm, trace, 0);
    sim.run(10000);
    EXPECT_EQ(vm.vmStats().ctxSwitches, 0u);
}

TEST(ContextSwitch, RaisesWalksForTlbSystems)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Intel;
    cfg.l1 = l1();
    cfg.l2 = l2();
    Results calm = runOnce(cfg, "gcc", 100000, 50000);
    cfg.ctxSwitchInterval = 5000;
    Results churned = runOnce(cfg, "gcc", 100000, 50000);
    EXPECT_GT(churned.vmStats().hwWalks, calm.vmStats().hwWalks);
}

TEST(ContextSwitch, NotlbImmuneEndToEnd)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Notlb;
    cfg.l1 = l1();
    cfg.l2 = l2();
    Results calm = runOnce(cfg, "gcc", 100000, 50000);
    cfg.ctxSwitchInterval = 5000;
    Results churned = runOnce(cfg, "gcc", 100000, 50000);
    EXPECT_EQ(churned.vmStats().uhandlerCalls,
              calm.vmStats().uhandlerCalls);
}

// ------------------------------------------------------ TLB miss counters

TEST(TlbMissCounters, CountUserMissesOnly)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    // One data miss (which internally also misses the D-TLB on the
    // UPT page — that nested miss must NOT count here).
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().dtlbMisses, 1u);
    EXPECT_EQ(vm.vmStats().itlbMisses, 0u);
    vm.instRef(Access{0x00400000});
    EXPECT_EQ(vm.vmStats().itlbMisses, 1u);
    // Hits do not count.
    vm.dataRef(Access{0x10000004, 0, false});
    vm.instRef(Access{0x00400004});
    EXPECT_EQ(vm.vmStats().dtlbMisses, 1u);
    EXPECT_EQ(vm.vmStats().itlbMisses, 1u);
}

TEST(TlbMissCounters, MatchTlbObjectCounters)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Intel;
    cfg.l1 = l1();
    cfg.l2 = l2();
    auto trace = makeWorkload("gcc", 5);
    System sys(cfg);
    Results r = sys.run(*trace, 100000, "gcc");
    // For INTEL every user TLB miss is one hardware walk.
    EXPECT_EQ(r.vmStats().itlbMisses + r.vmStats().dtlbMisses,
              r.vmStats().hwWalks);
}

TEST(TlbMissCounters, SoftwareSchemeMatchesUhandlerCalls)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Parisc;
    cfg.l1 = l1();
    cfg.l2 = l2();
    Results r = runOnce(cfg, "vortex", 100000, 0);
    // PA-RISC: one user handler per user TLB miss, nothing nested.
    EXPECT_EQ(r.vmStats().itlbMisses + r.vmStats().dtlbMisses,
              r.vmStats().uhandlerCalls);
}


// ----------------------------------------------------------- L2 TLB

TEST(L2Tlb, HitSkipsRefillEntirely)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.attachL2Tlb(TlbParams{1024, 0}, 2);
    ASSERT_NE(vm.l2tlb(), nullptr);

    vm.dataRef(Access{0x10000000, 0, false});
    VmStats first = vm.vmStats();
    EXPECT_EQ(first.l2TlbHits, 0u); // cold: full walk ran

    // Evict the page from the (tiny-by-comparison) L1 D-TLB only:
    // random replacement needs an unbounded-but-terminating flood.
    for (int i = 1; vm.dtlb()->contains(0x10000000 >> 12); ++i) {
        ASSERT_LT(i, 100000) << "flood failed to evict";
        vm.dataRef(Access{0x10000000 +
                       static_cast<std::uint64_t>(1 + i % 500) * 4096, 0, false});
    }

    VmStats before = vm.vmStats();
    vm.dataRef(Access{0x10000000, 0, false}); // L1 miss, L2 TLB hit
    const VmStats &after = vm.vmStats();
    EXPECT_EQ(after.l2TlbHits, before.l2TlbHits + 1);
    EXPECT_EQ(after.interrupts, before.interrupts);
    EXPECT_EQ(after.uhandlerCalls, before.uhandlerCalls);
    EXPECT_EQ(after.pteLoads, before.pteLoads);
    EXPECT_EQ(after.hwWalkCycles, before.hwWalkCycles + 2);
    EXPECT_TRUE(vm.dtlb()->contains(0x10000000 >> 12));
}

TEST(L2Tlb, MissFallsThroughToWalk)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    IntelVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    vm.attachL2Tlb(TlbParams{256, 0}, 2);
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().l2TlbHits, 0u);
    EXPECT_EQ(vm.vmStats().hwWalks, 1u);
    EXPECT_TRUE(vm.l2tlb()->contains(0x10000000 >> 12)); // filled
}

TEST(L2Tlb, NoneAttachedByDefault)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    EXPECT_EQ(vm.l2tlb(), nullptr);
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().l2TlbHits, 0u);
}

TEST(L2Tlb, FactoryAttachesFromConfig)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Parisc;
    cfg.l1 = l1();
    cfg.l2 = l2();
    cfg.l2TlbEntries = 512;
    System sys(cfg);
    EXPECT_NE(sys.vm().l2tlb(), nullptr);
    EXPECT_EQ(sys.vm().l2tlb()->params().entries, 512u);

    // TLB-less organizations get none even when requested.
    cfg.kind = SystemKind::Notlb;
    System notlb(cfg);
    EXPECT_EQ(notlb.vm().l2tlb(), nullptr);
}

TEST(L2Tlb, ReducesSoftwareOverheadEndToEnd)
{
    SimConfig cfg;
    cfg.kind = SystemKind::Ultrix;
    cfg.l1 = l1();
    cfg.l2 = l2();
    Results without = runOnce(cfg, "vortex", 100000, 50000);
    cfg.l2TlbEntries = 2048;
    Results with_l2 = runOnce(cfg, "vortex", 100000, 50000);
    EXPECT_LT(with_l2.vmcpi() + with_l2.interruptCpi(),
              without.vmcpi() + without.interruptCpi());
    EXPECT_GT(with_l2.vmStats().l2TlbHits, 0u);
}

TEST(L2Tlb, FlushedOnContextSwitch)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    UltrixVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.attachL2Tlb(TlbParams{256, 0}, 2);
    vm.dataRef(Access{0x10000000, 0, false});
    ASSERT_TRUE(vm.l2tlb()->contains(0x10000000 >> 12));
    vm.contextSwitch();
    EXPECT_FALSE(vm.l2tlb()->contains(0x10000000 >> 12));
}

} // anonymous namespace
} // namespace vmsim
