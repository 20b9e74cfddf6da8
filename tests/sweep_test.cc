/**
 * @file
 * Tests for the declarative sweep engine: SweepSpec grid indexing and
 * cell materialization, SweepRunner determinism (a parallel run's
 * SweepResults must be identical to a serial run's), seed statistics,
 * the new BenchOptions flags, and tryKindFromName().
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/json.hh"
#include "base/logging.hh"
#include "core/sim_config.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"

namespace vmsim
{
namespace
{

SweepSpec
smallSpec()
{
    SimConfig base;
    base.l1 = CacheParams{8_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    base.seed = 7;

    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Intel})
        .workloads({"gcc", "ijpeg"})
        .l1Sizes({4_KiB, 16_KiB})
        .seeds(2)
        .instructions(20'000)
        .warmup(2'000);
    return spec;
}

// ------------------------------------------------------------- SweepSpec

TEST(SweepSpec, GridDimensionsAndCellCount)
{
    SweepSpec spec = smallSpec();
    EXPECT_EQ(spec.systemDim(), 2u);
    EXPECT_EQ(spec.workloadDim(), 2u);
    EXPECT_EQ(spec.l1Dim(), 2u);
    EXPECT_EQ(spec.l2Dim(), 1u); // unset axis counts one
    EXPECT_EQ(spec.lineDim(), 1u);
    EXPECT_EQ(spec.seedDim(), 2u);
    EXPECT_EQ(spec.numCells(), 16u);

    EXPECT_EQ(SweepSpec{}.numCells(), 1u);
}

TEST(SweepSpec, FlatIndexRoundTrips)
{
    SweepSpec spec = smallSpec();
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        CellIndex idx = spec.unflatten(flat);
        EXPECT_EQ(spec.flatIndex(idx), flat);
    }
    // Grid order: seed is the innermost axis.
    EXPECT_EQ(spec.unflatten(0).seed, 0u);
    EXPECT_EQ(spec.unflatten(1).seed, 1u);
    EXPECT_EQ(spec.unflatten(0), (CellIndex{}));
}

TEST(SweepSpec, OutOfRangeIndexPanics)
{
    SweepSpec spec = smallSpec();
    setQuiet(true);
    EXPECT_THROW(spec.flatIndex({.system = 2}), PanicError);
    EXPECT_THROW(spec.unflatten(spec.numCells()), PanicError);
    setQuiet(false);
}

TEST(SweepSpec, CellAppliesAxesVariantsAndSeedOffset)
{
    std::vector<ConfigVariant> variants = {
        {"deep", [](SimConfig &cfg) { cfg.tlbEntries = 16; }},
        {"wide", [](SimConfig &cfg) { cfg.tlbEntries = 512; }},
    };
    SweepSpec spec = smallSpec();
    spec.lineSizes({{16, 32}, {64, 128}}).variants(variants);

    SweepCell cell = spec.cell(spec.flatIndex({.system = 1,
                                               .workload = 1,
                                               .l1 = 1,
                                               .line = 1,
                                               .variant = 0,
                                               .seed = 1}));
    EXPECT_EQ(cell.config.kind, SystemKind::Intel);
    EXPECT_EQ(cell.workload, "ijpeg");
    EXPECT_EQ(cell.config.l1.sizeBytes, 16_KiB);
    EXPECT_EQ(cell.config.l1.lineSize, 64u);
    EXPECT_EQ(cell.config.l2.lineSize, 128u);
    EXPECT_EQ(cell.config.tlbEntries, 16u);
    EXPECT_EQ(cell.config.seed, 8u); // base 7 + seed index 1
}

TEST(SweepSpec, InterruptCostRepricesOneRun)
{
    // Interrupt cost is a pure price: no event count depends on it, so
    // one run re-priced through interruptCpiAt() stands in for a run
    // at every cost, and a sweep needs no interrupt-cost axis.
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
          SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
          SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur}) {
        SimConfig cfg;
        cfg.kind = kind;
        cfg.l1 = CacheParams{4_KiB, 32};
        cfg.l2 = CacheParams{256_KiB, 64};
        cfg.costs.interruptCycles = 10;
        Results cheap = runOnce(cfg, "vortex", 30'000, 5'000);
        cfg.costs.interruptCycles = 200;
        Results dear = runOnce(cfg, "vortex", 30'000, 5'000);

        EXPECT_EQ(cheap.serialize().dump(), dear.serialize().dump())
            << kindName(kind);
        EXPECT_EQ(cheap.interruptCpiAt(200), dear.interruptCpi())
            << kindName(kind);
    }
}

TEST(SweepSpec, UnsetAxesKeepBaseConfig)
{
    SimConfig base;
    base.kind = SystemKind::Parisc;
    base.l1 = CacheParams{8_KiB, 32};
    base.l2 = CacheParams{2_MiB, 64};

    SweepSpec spec;
    spec.base(base);
    SweepCell cell = spec.cell(0);
    EXPECT_EQ(cell.config.kind, SystemKind::Parisc);
    EXPECT_EQ(cell.config.l1.sizeBytes, 8_KiB);
    EXPECT_EQ(cell.config.l2.sizeBytes, 2_MiB);
    EXPECT_EQ(cell.workload, "gcc"); // default workload
}

// ----------------------------------------------------------- SweepRunner

TEST(SweepRunner, ParallelRunMatchesSerialExactly)
{
    SweepSpec spec = smallSpec();
    SweepResults serial = SweepRunner(1).run(spec);
    SweepResults parallel = SweepRunner(4).run(spec);

    ASSERT_EQ(serial.size(), spec.numCells());
    ASSERT_EQ(parallel.size(), spec.numCells());
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        const Results &a = serial.at(flat);
        const Results &b = parallel.at(flat);
        // Bitwise-equal metrics, not approximately equal: the whole
        // point of grid-ordered results is byte-identical output.
        EXPECT_EQ(a.totalCpi(), b.totalCpi()) << "cell " << flat;
        EXPECT_EQ(a.mcpi(), b.mcpi()) << "cell " << flat;
        EXPECT_EQ(a.vmcpi(), b.vmcpi()) << "cell " << flat;
        EXPECT_EQ(a.userInstrs(), b.userInstrs()) << "cell " << flat;
        EXPECT_EQ(a.vmStats().itlbMisses, b.vmStats().itlbMisses)
            << "cell " << flat;
        EXPECT_EQ(a.vmStats().dtlbMisses, b.vmStats().dtlbMisses)
            << "cell " << flat;
        EXPECT_EQ(a.vmStats().pteLoads, b.vmStats().pteLoads)
            << "cell " << flat;
    }
}

TEST(SweepRunner, JobsZeroMeansHardwareConcurrency)
{
    EXPECT_EQ(SweepRunner(0).jobs(), ThreadPool::defaultThreads());
    EXPECT_EQ(SweepRunner(3).jobs(), 3u);
}

TEST(SweepRunner, SeedReplicationsDiffer)
{
    SimConfig base;
    base.kind = SystemKind::Ultrix;
    base.l1 = CacheParams{4_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};

    SweepSpec spec;
    spec.base(base).workloads({"gcc"}).seeds(3).instructions(20'000)
        .warmup(2'000);
    SweepResults res = SweepRunner(2).run(spec);

    // Different seeds must produce different traces.
    EXPECT_NE(res.at({.seed = 0}).vmStats().dtlbMisses,
              res.at({.seed = 1}).vmStats().dtlbMisses);

    SeedStats stats = res.seedStats(
        CellIndex{}, [](const Results &r) { return r.vmcpi(); });
    EXPECT_EQ(stats.seeds, 3u);
    EXPECT_LE(stats.min, stats.mean);
    EXPECT_LE(stats.mean, stats.max);
    EXPECT_GE(stats.stddev, 0.0);

    // meanMetric at a fixed cell with one seed is the cell's value.
    EXPECT_EQ(res.meanMetric({.seed = 0},
                             [](const Results &) { return 1.25; }),
              1.25);
}

// ---------------------------------------------------------- BenchOptions

TEST(BenchOptions, ParsesJobsSeedsAndWarmup)
{
    const char *argv[] = {"prog", "--jobs=4", "--seeds=3",
                          "--warmup=100", "--instructions=5000"};
    BenchOptions opts =
        BenchOptions::parse(5, const_cast<char **>(argv));
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.seeds, 3u);
    ASSERT_TRUE(opts.warmup.has_value());
    EXPECT_EQ(*opts.warmup, 100u);
    EXPECT_EQ(opts.resolvedWarmup(), 100u);
}

TEST(BenchOptions, WarmupDefaultsToQuarterInstructions)
{
    // Every layer resolves an unspecified warmup through the single
    // defaultWarmup() helper: one quarter of the measured run, the
    // same default runOnce() applies. (It was instructions/2 here and
    // instructions/4 in runOnce once — this pins the unification.)
    const char *argv[] = {"prog", "--instructions=5000"};
    BenchOptions opts =
        BenchOptions::parse(2, const_cast<char **>(argv));
    EXPECT_FALSE(opts.warmup.has_value());
    EXPECT_EQ(opts.resolvedWarmup(), defaultWarmup(5000));
    EXPECT_EQ(opts.resolvedWarmup(), 1250u);

    setQuiet(true);
    const char *bad[] = {"prog", "--seeds=0"};
    EXPECT_THROW(BenchOptions::parse(2, const_cast<char **>(bad)),
                 FatalError);
    setQuiet(false);
}

// ------------------------------------------------------- tryKindFromName

TEST(TryKindFromName, KnownAndUnknownNames)
{
    EXPECT_EQ(tryKindFromName("ULTRIX"), SystemKind::Ultrix);
    EXPECT_EQ(tryKindFromName("pa-risc"), SystemKind::Parisc);
    EXPECT_EQ(tryKindFromName("hw-inverted"), SystemKind::HwInverted);
    EXPECT_EQ(tryKindFromName("VAX"), std::nullopt);
    EXPECT_EQ(tryKindFromName(""), std::nullopt);

    // kindFromName stays fatal on unknown names.
    setQuiet(true);
    EXPECT_THROW(kindFromName("VAX"), FatalError);
    setQuiet(false);
    EXPECT_EQ(kindFromName("mach"), SystemKind::Mach);
}

} // anonymous namespace
} // namespace vmsim
