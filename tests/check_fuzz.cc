/**
 * @file
 * Differential fuzz campaign as a test: a seeded batch of random
 * (organization, workload, config, batch, fault) tuples must agree
 * across every execution strategy and satisfy every invariant, and the
 * campaign must be bit-deterministic so CI can diff its report.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/diff.hh"

namespace vmsim
{
namespace
{

TEST(DiffRunner, GenerateIsDeterministic)
{
    DiffOptions opts;
    opts.seed = 4242;
    DiffRunner a(opts), b(opts);
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_EQ(a.generate(i).toString(), b.generate(i).toString());
}

TEST(DiffRunner, GenerateCoversOrganizationsAndFeatures)
{
    DiffOptions opts;
    opts.seed = 4242;
    DiffRunner runner(opts);
    bool sawFaults = false, sawCtx = false, sawAsid = false,
         sawL2Tlb = false, sawWarmup = false;
    std::set<SystemKind> kinds;
    std::set<unsigned> cores;
    for (std::uint64_t i = 0; i < 200; ++i) {
        FuzzTuple t = runner.generate(i);
        kinds.insert(t.cfg.kind);
        cores.insert(t.cfg.cores);
        sawFaults |= t.faults;
        sawCtx |= t.cfg.ctxSwitchInterval != 0;
        sawAsid |= t.cfg.tlbAsidBits != 0;
        sawL2Tlb |= t.cfg.l2TlbEntries != 0;
        sawWarmup |= t.warmup != 0;
        EXPECT_GT(t.instrs, 0u);
        EXPECT_LE(t.instrs, opts.maxInstrs);
        EXPECT_GT(t.cfg.coreQuantum, 0u);
    }
    EXPECT_EQ(kinds.size(), 9u);
    EXPECT_EQ(cores, (std::set<unsigned>{1, 2, 4}));
    EXPECT_TRUE(sawFaults);
    EXPECT_TRUE(sawCtx);
    EXPECT_TRUE(sawAsid);
    EXPECT_TRUE(sawL2Tlb);
    EXPECT_TRUE(sawWarmup);
}

TEST(DiffRunner, ForceCoresPinsEveryTuple)
{
    DiffOptions opts;
    opts.seed = 4242;
    opts.forceCores = 4;
    DiffRunner runner(opts);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(runner.generate(i).cfg.cores, 4u);
}

TEST(DiffRunner, SeededCampaignFindsNoDivergence)
{
    DiffOptions opts;
    opts.seed = 20260806;
    FuzzReport report = DiffRunner(opts).run(60);
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.cases, 60u);
    EXPECT_GT(report.lawsChecked, 0u);
}

TEST(DiffRunner, ReportIsByteStableAcrossReruns)
{
    DiffOptions opts;
    opts.seed = 99;
    std::string a = DiffRunner(opts).run(25).toJson().dump(2);
    std::string b = DiffRunner(opts).run(25).toJson().dump(2);
    EXPECT_EQ(a, b);
}

TEST(FuzzTuple, ConfigRoundTripsThroughJson)
{
    DiffOptions opts;
    FuzzTuple t = DiffRunner(opts).generate(7);
    Json j = t.toJson();
    EXPECT_EQ(j.find("system")->asString(), kindName(t.cfg.kind));
    EXPECT_EQ(j.find("instrs")->asUint(), t.instrs);
    EXPECT_EQ(j.find("batch")->asUint(), t.batch);
    // The drawn SimConfig must validate for every generated tuple.
    for (std::uint64_t i = 0; i < 100; ++i)
        EXPECT_TRUE(DiffRunner(opts).generate(i).cfg.validate().ok());
}

} // anonymous namespace
} // namespace vmsim
