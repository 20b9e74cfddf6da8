/**
 * @file
 * Property-based tests: invariants that must hold across parameter
 * sweeps of the whole simulator — accounting conservation, monotone
 * responses to capacity, cost-model linearity, and cross-system
 * structural facts. These are the paper's "sanity physics".
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "os/parisc_vm.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

SimConfig
cfgFor(SystemKind kind, std::uint64_t l1 = 32_KiB,
       std::uint64_t l2 = 1_MiB, unsigned l1line = 32,
       unsigned l2line = 64)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{l1, l1line};
    cfg.l2 = CacheParams{l2, l2line};
    cfg.seed = 4242;
    return cfg;
}

constexpr Counter kN = 60000;
constexpr Counter kW = 20000;

// ------------------------------------------------- accounting invariants

class AccountingProperty
    : public ::testing::TestWithParam<std::tuple<SystemKind, const char *>>
{};

TEST_P(AccountingProperty, EventArithmeticHolds)
{
    auto [kind, workload] = GetParam();
    auto trace = makeWorkload(workload, 99);
    System sys(cfgFor(kind));
    Results r = sys.run(*trace, kN, workload, kW);
    const VmStats &s = r.vmStats();
    const MemSystemStats &m = r.memStats();

    // 1. Handler instruction fetches on the I-side equal the handler
    //    instruction counts.
    EXPECT_EQ(m.instOf(AccessClass::HandlerFetch).accesses,
              s.uhandlerInstrs + s.khandlerInstrs + s.rhandlerInstrs);

    // 2. L2 misses never exceed L1 misses never exceed accesses,
    //    per class and side.
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        for (const ClassCounters *ctr : {&m.inst[c], &m.data[c]}) {
            EXPECT_LE(ctr->l2Misses, ctr->l1Misses);
            EXPECT_LE(ctr->l1Misses, ctr->accesses);
        }
    }

    // 3. User instruction fetches equal instructions executed.
    EXPECT_EQ(m.instOf(AccessClass::User).accesses, r.userInstrs());

    // 4. Interrupt count is exactly the handler-invocation count for
    //    software schemes and zero for hardware schemes.
    if (kindUsesSoftwareRefill(kind)) {
        EXPECT_EQ(s.interrupts,
                  s.uhandlerCalls + s.khandlerCalls + s.rhandlerCalls);
    } else {
        EXPECT_EQ(s.interrupts, 0u);
    }

    // 5. Derived metrics are finite and non-negative.
    EXPECT_GE(r.mcpi(), 0.0);
    EXPECT_GE(r.vmcpi(), 0.0);
    EXPECT_GE(r.totalCpi(), 1.0);
}

TEST_P(AccountingProperty, InterruptCostLinearity)
{
    auto [kind, workload] = GetParam();
    Results r = runOnce(cfgFor(kind), workload, kN, kW);
    // interruptCpiAt is linear in the cost: the paper's 10/50/200
    // sweep needs no re-simulation.
    double at10 = r.interruptCpiAt(10);
    double at50 = r.interruptCpiAt(50);
    double at200 = r.interruptCpiAt(200);
    EXPECT_DOUBLE_EQ(at50, 5 * at10);
    EXPECT_DOUBLE_EQ(at200, 20 * at10);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, AccountingProperty,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values("gcc", "vortex", "ijpeg")));

// --------------------------------------------------- structural properties

class TlbSystemProperty : public ::testing::TestWithParam<SystemKind>
{};

TEST_P(TlbSystemProperty, BiggerTlbNeverWalksMore)
{
    SystemKind kind = GetParam();
    SimConfig small = cfgFor(kind);
    small.tlbEntries = 32;
    small.tlbProtectedSlots = 8;
    SimConfig big = cfgFor(kind);
    big.tlbEntries = 512;
    big.tlbProtectedSlots = 8;

    Results rs = runOnce(small, "vortex", kN, kW);
    Results rb = runOnce(big, "vortex", kN, kW);
    Counter walks_small = rs.vmStats().uhandlerCalls + rs.vmStats().hwWalks;
    Counter walks_big = rb.vmStats().uhandlerCalls + rb.vmStats().hwWalks;
    // Random replacement is not strictly inclusive, but a 16x capacity
    // gap must dominate noise.
    EXPECT_LT(walks_big, walks_small);
}

INSTANTIATE_TEST_SUITE_P(TlbSystems, TlbSystemProperty,
                         ::testing::Values(SystemKind::Ultrix,
                                           SystemKind::Mach,
                                           SystemKind::Intel,
                                           SystemKind::Parisc,
                                           SystemKind::HwInverted,
                                           SystemKind::HwMips));

TEST(Property, NotlbHandlersTrackL2Misses)
{
    // For NOTLB the user-handler count equals the user-reference L2
    // miss count by construction.
    Results r = runOnce(cfgFor(SystemKind::Notlb), "gcc", kN, kW);
    const MemSystemStats &m = r.memStats();
    Counter user_l2_misses = m.instOf(AccessClass::User).l2Misses +
                             m.dataOf(AccessClass::User).l2Misses;
    EXPECT_EQ(r.vmStats().uhandlerCalls, user_l2_misses);
}

TEST(Property, IntelWalksExactlyTwiceItsPteLoads)
{
    Results r = runOnce(cfgFor(SystemKind::Intel), "vortex", kN, kW);
    EXPECT_EQ(r.vmStats().pteLoads, 2 * r.vmStats().hwWalks);
}

TEST(Property, PariscPteLoadsAtLeastWalks)
{
    Results r = runOnce(cfgFor(SystemKind::Parisc), "vortex", kN, kW);
    const VmStats &s = r.vmStats();
    EXPECT_GE(s.pteLoads, s.uhandlerCalls);
    // Average chain search depth stays in the paper's band.
    double per_walk = static_cast<double>(s.pteLoads) /
                      static_cast<double>(s.uhandlerCalls);
    EXPECT_LT(per_walk, 2.0);
}

// ----------------------------------------------- capacity-response sweeps

class CacheSizeProperty
    : public ::testing::TestWithParam<std::tuple<SystemKind, std::uint64_t>>
{};

TEST_P(CacheSizeProperty, RunsAndAccountsAtEveryL1Size)
{
    auto [kind, l1] = GetParam();
    Results r = runOnce(cfgFor(kind, l1), "gcc", 40000, 15000);
    EXPECT_GT(r.totalCpi(), 1.0);
    EXPECT_EQ(r.userInstrs(), 40000u);
}

INSTANTIATE_TEST_SUITE_P(
    L1Grid, CacheSizeProperty,
    ::testing::Combine(::testing::Values(SystemKind::Ultrix,
                                         SystemKind::Intel,
                                         SystemKind::Notlb),
                       ::testing::Values(1_KiB, 4_KiB, 16_KiB, 64_KiB,
                                         128_KiB)));

TEST(Property, LargerL1ReducesUserMissTraffic)
{
    // Compare raw L1 user miss counts (same trace, same linesize):
    // capacity growth by 64x must reduce misses for a cacheable
    // workload.
    Results small = runOnce(cfgFor(SystemKind::Base, 1_KiB), "gcc", kN,
                            kW);
    Results big = runOnce(cfgFor(SystemKind::Base, 64_KiB), "gcc", kN,
                          kW);
    Counter miss_small =
        small.memStats().instOf(AccessClass::User).l1Misses +
        small.memStats().dataOf(AccessClass::User).l1Misses;
    Counter miss_big = big.memStats().instOf(AccessClass::User).l1Misses +
                       big.memStats().dataOf(AccessClass::User).l1Misses;
    EXPECT_LT(miss_big, miss_small);
}

TEST(Property, LargerL2HelpsNotlbMost)
{
    // The paper: "the software-oriented scheme places a much larger
    // dependence on the cache system". Growing L2 from 1 MB to 4 MB
    // must cut NOTLB's VMCPI by a larger *relative* factor than
    // ULTRIX's on the same workload.
    auto rel_gain = [](SystemKind kind) {
        Results at1 = runOnce(cfgFor(kind, 32_KiB, 1_MiB), "gcc", kN, kW);
        Results at4 = runOnce(cfgFor(kind, 32_KiB, 4_MiB), "gcc", kN, kW);
        return at4.vmcpi() / std::max(at1.vmcpi(), 1e-12);
    };
    double notlb = rel_gain(SystemKind::Notlb);
    double ultrix = rel_gain(SystemKind::Ultrix);
    EXPECT_LT(notlb, ultrix * 1.05);
}

// ------------------------------------------------------ seed determinism

class SeedProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SeedProperty, IdenticalSeedsIdenticalResults)
{
    SimConfig cfg = cfgFor(SystemKind::Mach);
    cfg.seed = GetParam();
    Results a = runOnce(cfg, "vortex", 30000, 10000);
    Results b = runOnce(cfg, "vortex", 30000, 10000);
    EXPECT_EQ(a.vmStats().interrupts, b.vmStats().interrupts);
    EXPECT_EQ(a.vmStats().pteLoads, b.vmStats().pteLoads);
    EXPECT_DOUBLE_EQ(a.totalCpi(), b.totalCpi());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedProperty,
                         ::testing::Values(1u, 7u, 12345u, 0xdeadbeefu));

// ------------------------------------------------- cost-model properties

TEST(Property, CostModelScalesComponentsLinearly)
{
    SimConfig cfg = cfgFor(SystemKind::Ultrix);
    Results r1 = runOnce(cfg, "gcc", kN, kW);
    cfg.costs.l1MissCycles = 40; // 2x
    cfg.costs.l2MissCycles = 1000;
    Results r2 = runOnce(cfg, "gcc", kN, kW);
    // Same trace, same caches: miss counts identical, so MCPI doubles.
    EXPECT_NEAR(r2.mcpi(), 2 * r1.mcpi(), 1e-9);
}

TEST(Property, HandlerLengthScalesUhandlerComponent)
{
    SimConfig cfg = cfgFor(SystemKind::Parisc);
    Results r1 = runOnce(cfg, "gcc", kN, kW);
    cfg.overrideHandlerCosts = true;
    cfg.handlerCosts = PariscVm::pariscDefaultCosts();
    cfg.handlerCosts.userInstrs = 40; // 2x the paper's 20
    Results r2 = runOnce(cfg, "gcc", kN, kW);
    EXPECT_NEAR(r2.vmcpiBreakdown().uhandler,
                2 * r1.vmcpiBreakdown().uhandler, 1e-9);
}


// --------------------------------------------------- cross-system facts

TEST(Property, UltrixAndNotlbShareWalkCosts)
{
    // The paper's NOTLB/ULTRIX pairing requires identical walk cost
    // structure: same handler lengths, same PTE sizes, so measured
    // differences isolate the TLB. Verify the cost tables agree.
    HandlerCosts u = defaultHandlerCosts(SystemKind::Ultrix);
    HandlerCosts n = defaultHandlerCosts(SystemKind::Notlb);
    EXPECT_EQ(u.userInstrs, n.userInstrs);
    EXPECT_EQ(u.rootInstrs, n.rootInstrs);
}

TEST(Property, InterruptFreeSchemesHaveNoHandlerFetches)
{
    for (SystemKind kind : {SystemKind::Intel, SystemKind::HwInverted,
                            SystemKind::HwMips, SystemKind::Spur,
                            SystemKind::Base}) {
        Results r = runOnce(cfgFor(kind), "vortex", 30000, 10000);
        EXPECT_EQ(r.memStats().instOf(AccessClass::HandlerFetch).accesses,
                  0u)
            << kindName(kind);
    }
}

TEST(Property, PollutionIsBoundedByVmTraffic)
{
    // VM-inflicted user misses can't exceed the number of lines the
    // VM mechanism itself touched (each VM access displaces at most
    // one line per level). Sanity bound, loose by design.
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Mach,
                            SystemKind::Parisc}) {
        auto base = runOnce(cfgFor(SystemKind::Base), "gcc", kN, kW);
        auto r = runOnce(cfgFor(kind), "gcc", kN, kW);
        const auto &m = r.memStats();
        Counter vm_accesses =
            m.instOf(AccessClass::HandlerFetch).accesses +
            m.dataOf(AccessClass::PteUser).accesses +
            m.dataOf(AccessClass::PteKernel).accesses +
            m.dataOf(AccessClass::PteRoot).accesses;
        Counter base_user =
            base.memStats().instOf(AccessClass::User).l1Misses +
            base.memStats().dataOf(AccessClass::User).l1Misses;
        Counter vm_user = m.instOf(AccessClass::User).l1Misses +
                          m.dataOf(AccessClass::User).l1Misses;
        if (vm_user > base_user) {
            EXPECT_LE(vm_user - base_user, 2 * vm_accesses)
                << kindName(kind);
        }
    }
}

TEST(Property, WorkloadsAgreeAcrossSystemBoundary)
{
    // The same (workload, seed) presents the identical reference
    // stream to every system: user access counts must match exactly.
    Counter expect = 0;
    for (SystemKind kind : kAllKinds) {
        Results r = runOnce(cfgFor(kind), "vortex", 30000, 0);
        Counter user = r.memStats().instOf(AccessClass::User).accesses +
                       r.memStats().dataOf(AccessClass::User).accesses;
        if (expect == 0)
            expect = user;
        EXPECT_EQ(user, expect) << kindName(kind);
    }
}

TEST(Property, UnifiedL2NeverSplitsClassCounters)
{
    // Unified L2 must not change *which* counters exist — only their
    // values. Run both and compare structure via total accesses.
    SimConfig split_cfg = cfgFor(SystemKind::Ultrix);
    SimConfig uni_cfg = split_cfg;
    uni_cfg.unifiedL2 = true;
    Results split = runOnce(split_cfg, "gcc", 30000, 10000);
    Results uni = runOnce(uni_cfg, "gcc", 30000, 10000);
    EXPECT_EQ(split.memStats().instOf(AccessClass::User).accesses,
              uni.memStats().instOf(AccessClass::User).accesses);
    EXPECT_EQ(split.memStats().dataOf(AccessClass::User).accesses,
              uni.memStats().dataOf(AccessClass::User).accesses);
}

} // anonymous namespace
} // namespace vmsim
