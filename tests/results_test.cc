/**
 * @file
 * Tests for the Results accounting (paper Tables 2 and 3): component
 * arithmetic, cost-model application, interrupt sweeps, and the
 * breakdown <-> total consistency invariants.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "base/json.hh"
#include "base/logging.hh"
#include "core/results.hh"
#include "counter_values.hh"

namespace vmsim
{
namespace
{

/** Hand-build stats with known counts. */
Results
handResults(Counter instrs = 1000)
{
    MemSystemStats mem;
    auto &ui = mem.inst[static_cast<unsigned>(AccessClass::User)];
    ui.accesses = instrs;
    ui.l1Misses = 100;
    ui.l2Misses = 10;
    auto &ud = mem.data[static_cast<unsigned>(AccessClass::User)];
    ud.accesses = 400;
    ud.l1Misses = 40;
    ud.l2Misses = 4;
    auto &hf = mem.inst[static_cast<unsigned>(AccessClass::HandlerFetch)];
    hf.accesses = 50;
    hf.l1Misses = 5;
    hf.l2Misses = 1;
    auto &pu = mem.data[static_cast<unsigned>(AccessClass::PteUser)];
    pu.accesses = 20;
    pu.l1Misses = 10;
    pu.l2Misses = 2;
    auto &pk = mem.data[static_cast<unsigned>(AccessClass::PteKernel)];
    pk.accesses = 8;
    pk.l1Misses = 4;
    pk.l2Misses = 1;
    auto &pr = mem.data[static_cast<unsigned>(AccessClass::PteRoot)];
    pr.accesses = 6;
    pr.l1Misses = 3;
    pr.l2Misses = 1;

    VmStats vm;
    vm.uhandlerCalls = 5;
    vm.uhandlerInstrs = 50;
    vm.khandlerCalls = 2;
    vm.khandlerInstrs = 40;
    vm.rhandlerCalls = 1;
    vm.rhandlerInstrs = 500;
    vm.hwWalkCycles = 0;
    vm.interrupts = 8;

    CostModel costs;
    costs.l1MissCycles = 20;
    costs.l2MissCycles = 500;
    costs.interruptCycles = 50;

    return Results("TEST", "hand", instrs, mem, vm, costs);
}

TEST(Results, McpiComponents)
{
    Results r = handResults();
    McpiBreakdown m = r.mcpiBreakdown();
    // (100 * 20) / 1000, (40 * 20) / 1000, (10 * 500) / 1000, ...
    EXPECT_DOUBLE_EQ(m.l1iMiss, 2.0);
    EXPECT_DOUBLE_EQ(m.l1dMiss, 0.8);
    EXPECT_DOUBLE_EQ(m.l2iMiss, 5.0);
    EXPECT_DOUBLE_EQ(m.l2dMiss, 2.0);
    EXPECT_DOUBLE_EQ(r.mcpi(), 9.8);
}

TEST(Results, VmcpiComponents)
{
    Results r = handResults();
    VmcpiBreakdown v = r.vmcpiBreakdown();
    EXPECT_DOUBLE_EQ(v.uhandler, 0.05);  // 50 / 1000
    EXPECT_DOUBLE_EQ(v.khandler, 0.04);
    EXPECT_DOUBLE_EQ(v.rhandler, 0.5);
    EXPECT_DOUBLE_EQ(v.upteL2, 0.2);     // 10 * 20 / 1000
    EXPECT_DOUBLE_EQ(v.upteMem, 1.0);    // 2 * 500 / 1000
    EXPECT_DOUBLE_EQ(v.kpteL2, 0.08);
    EXPECT_DOUBLE_EQ(v.kpteMem, 0.5);
    EXPECT_DOUBLE_EQ(v.rpteL2, 0.06);
    EXPECT_DOUBLE_EQ(v.rpteMem, 0.5);
    EXPECT_DOUBLE_EQ(v.handlerL2, 0.1);  // 5 * 20 / 1000
    EXPECT_DOUBLE_EQ(v.handlerMem, 0.5); // 1 * 500 / 1000
}

TEST(Results, BreakdownTotalsMatch)
{
    Results r = handResults();
    McpiBreakdown m = r.mcpiBreakdown();
    VmcpiBreakdown v = r.vmcpiBreakdown();
    EXPECT_DOUBLE_EQ(m.total(), r.mcpi());
    EXPECT_DOUBLE_EQ(v.total(), r.vmcpi());
    double component_sum = 0;
    for (const auto &[tag, value] : v.components())
        component_sum += value;
    EXPECT_DOUBLE_EQ(component_sum, v.total());
}

TEST(Results, ComponentsInTable3Order)
{
    auto comps = handResults().vmcpiBreakdown().components();
    ASSERT_EQ(comps.size(), 11u);
    EXPECT_EQ(comps[0].first, "uhandler");
    EXPECT_EQ(comps[1].first, "upte-L2");
    EXPECT_EQ(comps[2].first, "upte-MEM");
    EXPECT_EQ(comps[3].first, "khandler");
    EXPECT_EQ(comps[6].first, "rhandler");
    EXPECT_EQ(comps[9].first, "handler-L2");
    EXPECT_EQ(comps[10].first, "handler-MEM");
}

TEST(Results, InterruptCpi)
{
    Results r = handResults();
    EXPECT_DOUBLE_EQ(r.interruptCpi(), 8 * 50 / 1000.0);
    // The paper's sweep values.
    EXPECT_DOUBLE_EQ(r.interruptCpiAt(10), 0.08);
    EXPECT_DOUBLE_EQ(r.interruptCpiAt(200), 1.6);
}

TEST(Results, TotalCpiIsOnePlusComponents)
{
    Results r = handResults();
    EXPECT_DOUBLE_EQ(r.totalCpi(),
                     1.0 + r.mcpi() + r.vmcpi() + r.interruptCpi());
}

TEST(Results, HwWalkCyclesCountAsUhandler)
{
    MemSystemStats mem;
    VmStats vm;
    vm.hwWalks = 10;
    vm.hwWalkCycles = 70;
    Results r("INTEL", "x", 1000, mem, vm, CostModel{});
    EXPECT_DOUBLE_EQ(r.vmcpiBreakdown().uhandler, 0.07);
}

TEST(Results, AlternativeCostModel)
{
    MemSystemStats mem;
    auto &ud = mem.data[static_cast<unsigned>(AccessClass::User)];
    ud.l1Misses = 10;
    CostModel costs;
    costs.l1MissCycles = 30;
    Results r("X", "y", 100, mem, VmStats{}, costs);
    EXPECT_DOUBLE_EQ(r.mcpi(), 10 * 30 / 100.0);
}

TEST(Results, ZeroInstructionsPanics)
{
    setQuiet(true);
    EXPECT_THROW(
        Results("X", "y", 0, MemSystemStats{}, VmStats{}, CostModel{}),
        PanicError);
    setQuiet(false);
}

TEST(Results, NaiveOverheadFraction)
{
    Results r = handResults();
    EXPECT_DOUBLE_EQ(r.vmOverheadNaive(), r.vmcpi() / r.totalCpi());
}

TEST(Results, SummaryMentionsEverything)
{
    std::ostringstream oss;
    handResults().printSummary(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("MCPI"), std::string::npos);
    EXPECT_NE(out.find("VMCPI"), std::string::npos);
    EXPECT_NE(out.find("rhandler"), std::string::npos);
    EXPECT_NE(out.find("interrupts"), std::string::npos);
    EXPECT_NE(out.find("TEST"), std::string::npos);
}

TEST(Results, MetadataAccessors)
{
    Results r = handResults();
    EXPECT_EQ(r.system(), "TEST");
    EXPECT_EQ(r.workload(), "hand");
    EXPECT_EQ(r.userInstrs(), 1000u);
    EXPECT_EQ(r.vmStats().interrupts, 8u);
    EXPECT_EQ(r.costs().l2MissCycles, 500u);
}


TEST(Results, ToJsonRoundTripFields)
{
    Results r = handResults();
    std::string out = r.toJson().dump();
    // Spot-check the load-bearing fields.
    EXPECT_NE(out.find("\"system\":\"TEST\""), std::string::npos);
    EXPECT_NE(out.find("\"user_instructions\":1000"),
              std::string::npos);
    EXPECT_NE(out.find("\"interrupts\":8"), std::string::npos);
    EXPECT_NE(out.find("\"uhandler\":0.05"), std::string::npos);
    EXPECT_NE(out.find("\"rhandler\":0.5"), std::string::npos);
    EXPECT_NE(out.find("\"cpi_at_200\":1.6"), std::string::npos);
    EXPECT_NE(out.find("\"total_cpi\""), std::string::npos);
}

TEST(Results, ToJsonParsesAsBalancedStructure)
{
    // Cheap structural sanity: balanced braces/brackets, quotes even.
    std::string out = handResults().toJson().dump(2);
    long depth = 0;
    long quotes = 0;
    for (char c : out) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        if (c == '"')
            ++quotes;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0);
}

/**
 * The journal format of the VM counters, pinned: today's 23 keys with
 * each counter's value under its own key, and per-core slices as
 * 7-element arrays in CoreStats order. Existing journals and shard
 * logs only load while this holds.
 */
TEST(Results, SerializeWritesEveryCounterUnderItsKey)
{
    Results r("TEST", "hand", 1000, MemSystemStats{}, distinctVmStats(),
              CostModel{});
    const Json j = r.serialize();
    EXPECT_EQ(j.find("vm")->dump(),
              "{\"uhandler_calls\":1001,\"khandler_calls\":1002,"
              "\"rhandler_calls\":1003,\"uhandler_instrs\":1004,"
              "\"khandler_instrs\":1005,\"rhandler_instrs\":1006,"
              "\"hw_walks\":1007,\"hw_walk_cycles\":1008,"
              "\"interrupts\":1009,\"pte_loads\":1010,"
              "\"ctx_switches\":1011,\"l2tlb_hits\":1012,"
              "\"itlb_misses\":1013,\"dtlb_misses\":1014,"
              "\"shootdowns_sent\":1015,\"shootdowns_recv\":1016,"
              "\"shootdown_cycles\":1017,\"pages_touched\":1018,"
              "\"major_faults\":1019,\"reused_frames\":1020,"
              "\"evictions\":1021,\"writebacks\":1022,"
              "\"fault_cycles\":1023,\"per_core\":"
              "[[5001,301,402,503,604,705,806],"
              "[5002,712,612,508,411,311,213]]}");

    Results back = Results::deserialize(j, CostModel{}, true).orThrow();
    const VmStats &want = r.vmStats();
    const VmStats &got = back.vmStats();
    for (const VmStatsField &f : kVmStatsFields)
        EXPECT_EQ(got.*f.field, want.*f.field) << f.key;
    ASSERT_EQ(got.perCore.size(), want.perCore.size());
    for (std::size_t c = 0; c < want.perCore.size(); ++c)
        for (const CoreStatsField &f : kCoreStatsFields)
            EXPECT_EQ(got.perCore[c].*f.field, want.perCore[c].*f.field)
                << "core " << c << " " << f.key;
    EXPECT_EQ(back.serialize().dump(), j.dump());
}

} // anonymous namespace
} // namespace vmsim
