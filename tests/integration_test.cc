/**
 * @file
 * Integration tests: whole simulations through the System/Simulator
 * stack, checking cross-module invariants and the qualitative findings
 * the paper reports.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "common.hh"
#include "core/factory.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "trace/synthetic/workloads.hh"
#include "trace/trace_file.hh"

namespace vmsim
{
namespace
{

SimConfig
baseConfig(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{32_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    cfg.seed = 777;
    return cfg;
}

constexpr Counter kRun = 150000;
constexpr Counter kWarm = 50000;

Results
quickRun(SystemKind kind, const char *workload = "gcc")
{
    return runOnce(baseConfig(kind), workload, kRun, kWarm);
}

TEST(Integration, AllSystemsRunAllWorkloads)
{
    for (SystemKind kind : kAllKinds) {
        for (const auto &w : workloadNames()) {
            Results r = runOnce(baseConfig(kind), w, 20000, 5000);
            EXPECT_EQ(r.userInstrs(), 20000u);
            EXPECT_GE(r.totalCpi(), 1.0);
        }
    }
}

TEST(Integration, BaseHasZeroVmOverhead)
{
    Results r = quickRun(SystemKind::Base);
    EXPECT_EQ(r.vmcpi(), 0.0);
    EXPECT_EQ(r.interruptCpi(), 0.0);
    EXPECT_GT(r.mcpi(), 0.0);
}

TEST(Integration, IntelTakesNoInterrupts)
{
    Results r = quickRun(SystemKind::Intel);
    EXPECT_EQ(r.vmStats().interrupts, 0u);
    EXPECT_EQ(r.interruptCpi(), 0.0);
    EXPECT_GT(r.vmcpi(), 0.0);
    // And never touches the I-cache with handler code (Table 3 note:
    // handler-L2 / handler-MEM events cannot happen).
    VmcpiBreakdown v = r.vmcpiBreakdown();
    EXPECT_EQ(v.handlerL2, 0.0);
    EXPECT_EQ(v.handlerMem, 0.0);
    EXPECT_EQ(v.khandler, 0.0);
}

TEST(Integration, UltrixHasNoKernelHandler)
{
    // Table 3 note: ULTRIX has no kernel-level miss handler.
    Results r = quickRun(SystemKind::Ultrix);
    VmcpiBreakdown v = r.vmcpiBreakdown();
    EXPECT_EQ(v.khandler, 0.0);
    EXPECT_EQ(v.kpteL2, 0.0);
    EXPECT_EQ(v.kpteMem, 0.0);
    EXPECT_GT(v.uhandler, 0.0);
}

TEST(Integration, MachUsesAllThreeLevels)
{
    // Kernel/root-level misses are a cold-start phenomenon: once the
    // handful of UPT/KPT page mappings sit in the protected slots they
    // never miss again. Measure from cold (no warmup).
    Results r = runOnce(baseConfig(SystemKind::Mach), "vortex", kRun, 0);
    const VmStats &s = r.vmStats();
    EXPECT_GT(s.uhandlerCalls, 0u);
    EXPECT_GT(s.khandlerCalls, 0u);
    EXPECT_GT(s.rhandlerCalls, 0u);
    EXPECT_GE(s.interrupts, s.uhandlerCalls + s.khandlerCalls);
}

TEST(Integration, PariscHasOnlyUserLevelEvents)
{
    Results r = quickRun(SystemKind::Parisc, "vortex");
    VmcpiBreakdown v = r.vmcpiBreakdown();
    EXPECT_EQ(v.khandler, 0.0);
    EXPECT_EQ(v.rhandler, 0.0);
    EXPECT_EQ(v.rpteL2, 0.0);
    EXPECT_EQ(v.rpteMem, 0.0);
    EXPECT_GT(v.uhandler, 0.0);
}

TEST(Integration, SoftwareSchemesInterruptOncePerHandler)
{
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Mach,
                            SystemKind::Parisc, SystemKind::Notlb}) {
        Results r = quickRun(kind, "gcc");
        const VmStats &s = r.vmStats();
        EXPECT_EQ(s.interrupts, s.uhandlerCalls + s.khandlerCalls +
                                    s.rhandlerCalls)
            << kindName(kind);
    }
}

TEST(Integration, HardwareSchemesNeverInterrupt)
{
    for (SystemKind kind : {SystemKind::Intel, SystemKind::HwInverted,
                            SystemKind::HwMips, SystemKind::Spur}) {
        Results r = quickRun(kind, "gcc");
        EXPECT_EQ(r.vmStats().interrupts, 0u) << kindName(kind);
        EXPECT_GT(r.vmStats().hwWalks, 0u) << kindName(kind);
    }
}

TEST(Integration, PollutionMakesVmMcpiExceedBase)
{
    // The paper's headline: including VM-inflicted cache misses, the
    // total overhead roughly doubles. At minimum, a VM system's MCPI
    // must be >= BASE's on the same trace (same seed).
    Results base = quickRun(SystemKind::Base, "gcc");
    for (SystemKind kind : {SystemKind::Ultrix, SystemKind::Mach,
                            SystemKind::Parisc}) {
        Results r = quickRun(kind, "gcc");
        EXPECT_GE(r.mcpi(), base.mcpi() * 0.98) << kindName(kind);
    }
}

TEST(Integration, VortexIsWorstIjpegIsBest)
{
    // The paper picks gcc/vortex as worst VM performers and ijpeg as
    // the counterexample.
    Results gcc = quickRun(SystemKind::Ultrix, "gcc");
    Results vortex = quickRun(SystemKind::Ultrix, "vortex");
    Results ijpeg = quickRun(SystemKind::Ultrix, "ijpeg");
    EXPECT_GT(vortex.vmcpi(), gcc.vmcpi());
    EXPECT_GT(gcc.vmcpi(), ijpeg.vmcpi());
}

TEST(Integration, DeterministicAcrossRuns)
{
    Results a = quickRun(SystemKind::Mach, "vortex");
    Results b = quickRun(SystemKind::Mach, "vortex");
    EXPECT_DOUBLE_EQ(a.mcpi(), b.mcpi());
    EXPECT_DOUBLE_EQ(a.vmcpi(), b.vmcpi());
    EXPECT_EQ(a.vmStats().interrupts, b.vmStats().interrupts);
}

TEST(Integration, WarmupReducesMeasuredMcpi)
{
    SimConfig cfg = baseConfig(SystemKind::Base);
    Results cold = runOnce(cfg, "gcc", kRun, 0);
    Results warm = runOnce(cfg, "gcc", kRun, kWarm);
    EXPECT_LT(warm.mcpi(), cold.mcpi());
}

TEST(Integration, SimulatorStopsAtTraceEnd)
{
    // A finite file trace ends the run early.
    char tmpl[] = "/tmp/vmsim_integ_XXXXXX";
    int fd = mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
    {
        TraceFileWriter w(tmpl);
        for (int i = 0; i < 100; ++i)
            w.write(TraceRecord{static_cast<std::uint32_t>(0x400000 +
                                                           4 * i),
                                0, MemOp::None});
        w.close();
    }
    TraceFileReader trace(tmpl);
    System system(baseConfig(SystemKind::Ultrix));
    Results r = system.run(trace, 1000000, "file");
    EXPECT_EQ(r.userInstrs(), 100u);
    std::remove(tmpl);
}

TEST(Integration, FileTraceMatchesSyntheticSource)
{
    // Recording a synthetic trace to disk and replaying it must give
    // identical results to driving the generator directly.
    char tmpl[] = "/tmp/vmsim_integ2_XXXXXX";
    int fd = mkstemp(tmpl);
    ASSERT_GE(fd, 0);
    ::close(fd);
    const Counter n = 30000;
    {
        GccLikeWorkload w(5);
        TraceFileWriter out(tmpl);
        TraceRecord rec;
        for (Counter i = 0; i < n; ++i) {
            w.next(rec);
            out.write(rec);
        }
        out.close();
    }
    SimConfig cfg = baseConfig(SystemKind::Parisc);
    cfg.seed = 5;

    GccLikeWorkload direct(5);
    System sys_a(cfg);
    Results ra = sys_a.run(direct, n, "direct");

    TraceFileReader replay(tmpl);
    System sys_b(cfg);
    Results rb = sys_b.run(replay, n, "replay");

    EXPECT_DOUBLE_EQ(ra.mcpi(), rb.mcpi());
    EXPECT_DOUBLE_EQ(ra.vmcpi(), rb.vmcpi());
    std::remove(tmpl);
}

TEST(Integration, SweepHelpersProduceValidGrids)
{
    EXPECT_EQ(paperL1Sizes(true).size(), 8u);
    EXPECT_EQ(paperL2Sizes(true).size(), 3u);
    EXPECT_EQ(paperLineSizes(true).size(), 10u);
    EXPECT_EQ(paperInterruptCosts().size(), 3u);
    for (auto [l1, l2] : paperLineSizes(true))
        EXPECT_LE(l1, l2);
    // Reduced grids are subsets.
    EXPECT_LT(paperL1Sizes(false).size(), paperL1Sizes(true).size());
}

TEST(Integration, ConfigValidation)
{
    setQuiet(true);
    SimConfig cfg = baseConfig(SystemKind::Ultrix);
    cfg.l2.sizeBytes = 16_KiB; // smaller than L1
    EXPECT_THROW(System{cfg}, FatalError);
    cfg = baseConfig(SystemKind::Ultrix);
    cfg.l1.lineSize = 128;
    cfg.l2.lineSize = 64;
    EXPECT_THROW(System{cfg}, FatalError);
    setQuiet(false);
}

TEST(Integration, KindNamesRoundTrip)
{
    for (SystemKind kind : kAllKinds) {
        EXPECT_EQ(kindFromName(kindName(kind)), kind);
    }
    EXPECT_EQ(kindFromName("parisc"), SystemKind::Parisc);
    EXPECT_EQ(kindFromName("ultrix"), SystemKind::Ultrix);
    setQuiet(true);
    EXPECT_THROW(kindFromName("VAX"), FatalError);
    setQuiet(false);
}

TEST(Integration, BenchOptionParsing)
{
    const char *argv[] = {"prog", "--full", "--csv",
                          "--instructions=5000", "--seed=9"};
    BenchOptions opts =
        BenchOptions::parse(5, const_cast<char **>(argv));
    EXPECT_TRUE(opts.full);
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.instructions, 5000u);
    EXPECT_EQ(opts.seed, 9u);

    setQuiet(true);
    const char *bad[] = {"prog", "--bogus"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(bad)),
                 FatalError);
    setQuiet(false);
}

} // anonymous namespace
} // namespace vmsim
