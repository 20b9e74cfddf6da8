/**
 * @file
 * Tests for the declarative sweep engine: SweepSpec grid indexing and
 * cell materialization, SweepRunner determinism (a parallel run's
 * SweepResults must be identical to a serial run's), seed statistics,
 * the graceful SIGINT drain and its resume, the new BenchOptions
 * flags, and tryKindFromName().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/signals.hh"
#include "common.hh"
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
    for (SystemKind kind : kAllKinds) {
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

// -------------------------------------------------------- graceful drain

/** A path under the test temp dir, unique to this process, with no
 *  file at it yet. */
std::string
freshPath(const std::string &name)
{
    std::string path = testing::TempDir() + "sweep_test_" +
                       std::to_string(::getpid()) + "_" + name;
    std::remove(path.c_str());
    return path;
}

/**
 * Resume @p spec from @p journal and check that exactly the cells
 * marked in @p journaled load from it and that the CSV is
 * byte-identical to an uninterrupted sweep's.
 */
void
expectResumeMatchesClean(const SweepSpec &spec, const std::string &journal,
                         const std::vector<bool> &journaled)
{
    SweepResults resumed =
        SweepRunner(2).journal(journal).resume().run(spec);
    ASSERT_TRUE(resumed.allOk());
    for (std::size_t i = 0; i < spec.numCells(); ++i)
        EXPECT_EQ(resumed.outcomeAt(i).fromJournal, journaled[i])
            << "cell " << i;
    EXPECT_EQ(csvOf(resumed), csvOf(SweepRunner(2).run(spec)));
}

TEST(GracefulShutdown, SignalBeforeRunCancelsEveryCell)
{
    installShutdownHandler();
    const SweepSpec spec = smallSpec();
    const std::string journal = freshPath("drain_before.journal");

    std::raise(SIGINT);
    ASSERT_TRUE(shutdownRequested());
    SweepResults res =
        SweepRunner(2).gracefulShutdown(true).journal(journal).run(spec);
    resetShutdownForTest();

    ASSERT_EQ(res.size(), spec.numCells());
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellOutcome &o = res.outcomeAt(i);
        EXPECT_FALSE(o.ok) << "cell " << i;
        EXPECT_EQ(o.error.code, ErrorCode::Canceled) << "cell " << i;
        EXPECT_EQ(o.attempts, 0u) << "cell " << i;
    }
    expectResumeMatchesClean(spec, journal,
                             std::vector<bool>(spec.numCells(), false));
    std::remove(journal.c_str());
}

TEST(GracefulShutdown, SignalMidCellCancelsItAndJournalsFinishedCells)
{
    installShutdownHandler();
    // Long cells: the in-flight cell is caught under a quarter of the
    // way in, so the signal lands with most of it still to run.
    const Counter instrs = 3'000'000;
    SimConfig base;
    base.l1 = CacheParams{8_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel})
        .seeds(2)
        .instructions(instrs)
        .warmup(Counter{0});
    const std::string journal = freshPath("drain_mid.journal");

    // The trigger reads each worker's progress counter as the
    // telemetry heartbeats publish it: once two cells are done, it
    // raises SIGINT while a worker's cell is in flight.
    ObsOptions obs;
    obs.progressSeconds = 0.001;
    obs.progressOut = freshPath("drain_mid_progress.jsonl");
    std::atomic<bool> sweepDone{false};
    std::int64_t target = -1;
    std::thread trigger([&] {
        std::size_t offset = 0;
        while (target < 0 && !sweepDone.load()) {
            std::ifstream in(obs.progressOut);
            const std::string text(std::istreambuf_iterator<char>(in),
                                   {});
            for (std::size_t eol;
                 target < 0 &&
                 (eol = text.find('\n', offset)) != std::string::npos;
                 offset = eol + 1) {
                Expected<Json> rec =
                    Json::parse(text.substr(offset, eol - offset));
                if (!rec.ok()) {
                    ADD_FAILURE() << rec.error().toString();
                    return;
                }
                if (rec.value().find("done")->asUint() < 2)
                    continue;
                const Json &workers = *rec.value().find("workers");
                for (std::size_t w = 0; w < workers.size(); ++w) {
                    const std::int64_t cell =
                        workers.at(w).find("cell")->asInt();
                    const Counter at =
                        workers.at(w).find("instrs")->asUint();
                    if (cell >= 0 && at > 0 && at < instrs / 4) {
                        target = cell;
                        std::raise(SIGINT);
                        break;
                    }
                }
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    SweepResults res = SweepRunner(2)
                           .gracefulShutdown(true)
                           .journal(journal)
                           .observe(obs)
                           .run(spec);
    sweepDone.store(true);
    trigger.join();
    const bool interrupted = shutdownRequested();
    resetShutdownForTest();

    ASSERT_GE(target, 0) << "no cell was seen in flight";
    ASSERT_TRUE(interrupted);
    const CellOutcome &hit =
        res.outcomeAt(static_cast<std::size_t>(target));
    EXPECT_FALSE(hit.ok);
    EXPECT_EQ(hit.error.code, ErrorCode::Canceled);
    EXPECT_EQ(hit.attempts, 1u);
    std::vector<bool> finished(spec.numCells());
    std::size_t nFinished = 0;
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellOutcome &o = res.outcomeAt(i);
        finished[i] = o.ok;
        nFinished += o.ok;
        EXPECT_TRUE(o.ok || o.error.code == ErrorCode::Canceled)
            << "cell " << i << ": " << o.error.toString();
    }
    EXPECT_GE(nFinished, 2u);
    EXPECT_LT(nFinished, spec.numCells());
    expectResumeMatchesClean(spec, journal, finished);
    std::remove(journal.c_str());
    std::remove(obs.progressOut.c_str());
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

// ------------------------------------------------------ shared front ends

/** Every raw counter and every derived CPI of @p r. */
std::string
resultBytes(const Results &r)
{
    return r.serialize().dump() + r.toJson().dump();
}

TEST(FrontEndSharing, IdenticalToUnshared)
{
    // Each (TLB organization, workload) is one group of eight: two L1
    // sizes x two line-size pairs x two price lists.
    SweepSpec spec;
    spec.systems({std::begin(kAllKinds), std::end(kAllKinds)})
        .workloads({"gcc", "vortex", "ijpeg"})
        .l1Sizes({8_KiB, 32_KiB})
        .lineSizes({{32, 64}, {64, 128}})
        .variants({{"paper", {}},
                   {"cheap-l2", [](SimConfig &c) {
                        c.costs.l2MissCycles = 120;
                        c.costs.interruptCycles = 200;
                    }}})
        .instructions(20000)
        .warmup(5000);
    const std::size_t n = spec.numCells();
    std::vector<std::string> want(n);
    for (std::size_t flat = 0; flat < n; ++flat) {
        const SweepCell cell = spec.cell(flat);
        want[flat] =
            resultBytes(runOnce(cell.config, cell.workload, 20000, 5000));
    }
    constexpr std::size_t kGroups = 6 * 3, kMembers = 8;

    for (bool reverse : {false, true}) {
        const ObsOptions obs;
        const FaultSpec faults;
        CellRunner runner(spec, obs, RetryPolicy{}, faults, 0, false,
                          false, nullptr);
        std::size_t recorded = 0, replayed = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t flat = reverse ? n - 1 - k : k;
            const CellExecution ex = runner.run(flat);
            ASSERT_TRUE(ex.outcome.ok) << ex.outcome.error.toString();
            EXPECT_EQ(resultBytes(ex.results), want[flat])
                << "cell " << flat << (reverse ? " (reverse)" : "");
            recorded += ex.outcome.frontEnd == FrontEndUse::Recorded;
            replayed += ex.outcome.frontEnd == FrontEndUse::Replayed;
        }
        EXPECT_EQ(recorded, kGroups);
        EXPECT_EQ(replayed, kGroups * (kMembers - 1));
    }

    for (unsigned jobs : {1u, 4u}) {
        const SweepResults res = SweepRunner(jobs).run(spec);
        std::size_t replayed = 0;
        for (std::size_t flat = 0; flat < n; ++flat) {
            ASSERT_TRUE(res.okAt(flat));
            EXPECT_EQ(resultBytes(res.at(flat)), want[flat])
                << "cell " << flat << " at --jobs=" << jobs;
            replayed +=
                res.outcomeAt(flat).frontEnd == FrontEndUse::Replayed;
        }
        // In order, every sibling replays; in parallel, a sibling that
        // starts before its group's log is published runs its own VM.
        if (jobs == 1)
            EXPECT_EQ(replayed, kGroups * (kMembers - 1));
        else
            EXPECT_GT(replayed, 0u);
    }
}

TEST(FrontEndSharing, GroupsIgnoreOnlyCacheGeometryAndPrices)
{
    SweepSpec spec;
    spec.systems({SystemKind::Ultrix, SystemKind::Notlb})
        .workloads({"gcc", "vortex"})
        .l1Sizes({8_KiB, 32_KiB})
        .variants({{"paper", {}},
                   {"small-tlb", [](SimConfig &c) { c.tlbEntries = 64; }},
                   {"unified", [](SimConfig &c) { c.unifiedL2 = true; }}});
    const std::vector<std::size_t> groups = frontEndGroups(spec);
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        const SweepCell cell = spec.cell(flat);
        const bool shares = cell.config.kind == SystemKind::Ultrix &&
                            !cell.config.unifiedL2;
        EXPECT_EQ(groups[flat] != kNoFrontEndGroup, shares) << flat;
        for (std::size_t other = 0; other < flat && shares; ++other) {
            const SweepCell o = spec.cell(other);
            const bool same = o.index.variant == cell.index.variant &&
                              o.workload == cell.workload;
            EXPECT_EQ(groups[other] == groups[flat], same)
                << flat << " vs " << other;
        }
    }
}

} // anonymous namespace
} // namespace vmsim
