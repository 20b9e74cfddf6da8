/**
 * @file
 * Tests for the deterministic fault-injection subsystem and its
 * integration with the sweep engine: spec parsing, seeded decision
 * streams, the trace/sink wrappers, per-cell failure isolation, and
 * transient-retry semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "common.hh"
#include "core/sweep.hh"
#include "fault/fault.hh"
#include "obs/event.hh"
#include "trace/trace.hh"

namespace vmsim
{
namespace
{

/** Unbounded counting trace: pc advances by 4, no data refs. */
class CountingSource : public TraceSource
{
  public:
    bool
    next(TraceRecord &rec) override
    {
        rec = TraceRecord{pc_, 0, MemOp::None};
        pc_ += 4;
        return true;
    }

  private:
    std::uint32_t pc_ = 0x1000;
};

// -------------------------------------------------------------- FaultSpec

TEST(FaultSpec, EmptyStringIsInactive)
{
    auto spec = FaultSpec::parse("");
    ASSERT_TRUE(spec.ok());
    EXPECT_FALSE(spec.value().any());
}

TEST(FaultSpec, ParsesEveryKey)
{
    auto e = FaultSpec::parse(
        "corrupt=0.01,truncate=0.02,throw=0.03,writefail=0.04,seed=9");
    ASSERT_TRUE(e.ok());
    const FaultSpec &s = e.value();
    EXPECT_DOUBLE_EQ(s.corrupt, 0.01);
    EXPECT_DOUBLE_EQ(s.truncate, 0.02);
    EXPECT_DOUBLE_EQ(s.throwProb, 0.03);
    EXPECT_DOUBLE_EQ(s.writeFail, 0.04);
    EXPECT_EQ(s.seed, 9u);
    EXPECT_TRUE(s.any());
}

TEST(FaultSpec, ToStringRoundTrips)
{
    auto e = FaultSpec::parse("corrupt=0.5,writefail=0.25,seed=3");
    ASSERT_TRUE(e.ok());
    auto again = FaultSpec::parse(e.value().toString());
    ASSERT_TRUE(again.ok());
    EXPECT_DOUBLE_EQ(again.value().corrupt, 0.5);
    EXPECT_DOUBLE_EQ(again.value().writeFail, 0.25);
    EXPECT_EQ(again.value().seed, 3u);
}

TEST(FaultSpec, RejectsMalformedInput)
{
    auto expectBad = [](const std::string &text) {
        auto e = FaultSpec::parse(text);
        ASSERT_FALSE(e.ok()) << text;
        EXPECT_EQ(e.error().code, ErrorCode::InvalidArgument) << text;
    };
    expectBad("corrupt");            // no '='
    expectBad("corrupt=lots");       // not a number
    expectBad("corrupt=1.5");        // out of [0, 1]
    expectBad("corrupt=-0.1");       // negative probability
    expectBad("explode=0.5");        // unknown key
    expectBad("seed=-1");            // negative seed
}

// ------------------------------------------------------- decision streams

TEST(FaultStream, DistinctCellsAndAttemptsGetDistinctStreams)
{
    EXPECT_EQ(faultStream(1, 0, 0), faultStream(1, 0, 0));
    EXPECT_NE(faultStream(1, 0, 0), faultStream(1, 1, 0));
    EXPECT_NE(faultStream(1, 0, 0), faultStream(1, 0, 1));
    EXPECT_NE(faultStream(1, 0, 0), faultStream(2, 0, 0));
}

TEST(FaultInjectorTest, SameStreamSameDecisions)
{
    FaultSpec spec;
    spec.corrupt = 0.5;
    FaultInjector a(spec, 42);
    FaultInjector b(spec, 42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.fire(0.5), b.fire(0.5)) << "draw " << i;
}

TEST(FaultInjectorTest, ProbabilityEndpoints)
{
    FaultSpec spec;
    FaultInjector inj(spec, 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(inj.fire(0.0));
        EXPECT_TRUE(inj.fire(1.0));
    }
}

// ------------------------------------------------------ FaultyTraceSource

TEST(FaultyTraceSourceTest, CorruptFaultThrowsAndEmitsEvent)
{
    FaultSpec spec;
    spec.corrupt = 1.0;
    CollectingSink sink;
    FaultyTraceSource src(std::make_unique<CountingSource>(), spec, 5,
                          &sink);
    TraceRecord rec;
    setQuiet(true);
    try {
        src.next(rec);
        FAIL() << "corrupt fault did not fire";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_NE(e.error().message.find("injected fault"),
                  std::string::npos);
    }
    setQuiet(false);
    ASSERT_EQ(sink.countOf(EventKind::FaultInjected), 1u);
    EXPECT_EQ(sink.events()[0].level,
              static_cast<std::uint8_t>(FaultKind::CorruptRecord));
}

TEST(FaultyTraceSourceTest, TruncateFaultEndsTheTrace)
{
    FaultSpec spec;
    spec.truncate = 1.0;
    FaultyTraceSource src(std::make_unique<CountingSource>(), spec, 5);
    TraceRecord rec;
    setQuiet(true);
    try {
        src.next(rec);
        FAIL() << "truncate fault did not fire";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
    }
    setQuiet(false);
    // After truncation the source stays exhausted instead of faulting
    // again.
    EXPECT_FALSE(src.next(rec));
}

TEST(FaultyTraceSourceTest, ZeroSpecIsTransparent)
{
    FaultyTraceSource src(std::make_unique<CountingSource>(),
                          FaultSpec{}, 5);
    TraceRecord rec;
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(src.next(rec));
        EXPECT_EQ(rec.pc, 0x1000u + 4u * static_cast<unsigned>(i));
    }
}

TEST(FaultyTraceSourceTest, DecisionsAreDeterministic)
{
    FaultSpec spec;
    spec.throwProb = 0.05;
    auto firstThrowAt = [&] {
        FaultyTraceSource src(std::make_unique<CountingSource>(), spec,
                              11);
        TraceRecord rec;
        for (int i = 0; i < 10000; ++i) {
            try {
                src.next(rec);
            } catch (const std::runtime_error &) {
                return i;
            }
        }
        return -1;
    };
    setQuiet(true);
    int a = firstThrowAt();
    int b = firstThrowAt();
    setQuiet(false);
    EXPECT_NE(a, -1);
    EXPECT_EQ(a, b);
}

// -------------------------------------------------------------- FaultySink

TEST(FaultySinkTest, WriteFailureIsTransient)
{
    FaultSpec spec;
    spec.writeFail = 1.0;
    CollectingSink inner;
    FaultySink sink(&inner, spec, 3);
    setQuiet(true);
    try {
        sink.event(TraceEvent{});
        FAIL() << "write fault did not fire";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::IoError);
        EXPECT_TRUE(e.error().transient);
    }
    setQuiet(false);
    EXPECT_TRUE(inner.events().empty());
}

TEST(FaultySinkTest, ForwardsWhenNotFiring)
{
    CollectingSink inner;
    FaultySink sink(&inner, FaultSpec{}, 3);
    sink.event(TraceEvent{});
    sink.flush();
    EXPECT_EQ(inner.events().size(), 1u);
}

// ------------------------------------------------- sweep fault isolation

TEST(SweepFaults, CertainFaultFailsEveryCellWithoutKillingTheSweep)
{
    setQuiet(true);
    FaultSpec faults;
    faults.corrupt = 1.0;
    faults.seed = 7;
    SweepSpec spec = smallSpec();
    SweepResults res = SweepRunner(2).injectFaults(faults).run(spec);
    setQuiet(false);

    ASSERT_EQ(res.size(), spec.numCells());
    EXPECT_EQ(res.failedCount(), spec.numCells());
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellOutcome &out = res.outcomeAt(i);
        EXPECT_FALSE(out.ok);
        EXPECT_EQ(out.error.code, ErrorCode::ParseError);
        EXPECT_NE(out.error.message.find("injected fault"),
                  std::string::npos);
    }
}

TEST(SweepFaults, HealthyCellsMatchAnUninjectedRunExactly)
{
    SweepSpec spec = smallSpec();
    SweepResults clean = SweepRunner(2).run(spec);

    setQuiet(true);
    FaultSpec faults;
    faults.throwProb = 0.00002; // rare: some cells fail, some survive
    faults.seed = 12;
    SweepResults faulty = SweepRunner(2).injectFaults(faults).run(spec);
    setQuiet(false);

    ASSERT_EQ(faulty.size(), clean.size());
    EXPECT_TRUE(clean.allOk());
    // The seed above must actually fail something, or the test is
    // vacuous; and it must not fail everything, or "healthy cells"
    // is an empty set.
    EXPECT_GT(faulty.failedCount(), 0u);
    EXPECT_LT(faulty.failedCount(), faulty.size());
    for (std::size_t i = 0; i < faulty.size(); ++i) {
        if (!faulty.okAt(i))
            continue;
        EXPECT_EQ(faulty.at(i).totalCpi(), clean.at(i).totalCpi())
            << "cell " << i;
        EXPECT_EQ(faulty.at(i).vmcpi(), clean.at(i).vmcpi())
            << "cell " << i;
    }
}

TEST(SweepFaults, TransientWriteFailureSucceedsOnRetry)
{
    // writefail faults are transient and each attempt rolls a fresh
    // decision stream, so with enough retries every cell completes.
    setQuiet(true);
    FaultSpec faults;
    faults.writeFail = 1.0; // first event write of attempt 1 fails...
    faults.seed = 5;
    SweepSpec spec = smallSpec();

    // Without retries every cell that writes an event fails.
    SweepResults noRetry = SweepRunner(2).injectFaults(faults).run(spec);
    EXPECT_GT(noRetry.failedCount(), 0u);
    for (std::size_t i = 0; i < noRetry.size(); ++i)
        if (!noRetry.okAt(i)) {
            EXPECT_TRUE(noRetry.outcomeAt(i).error.transient);
            EXPECT_EQ(noRetry.outcomeAt(i).attempts, 1u);
        }
    setQuiet(false);
}

TEST(SweepFaults, RetriedTransientFailureRecordsAttempts)
{
    setQuiet(true);
    FaultSpec faults;
    // Each cell emits ~2k events; at p=5e-4 an attempt fails with
    // probability ~0.6, so retries certainly happen, and twenty of
    // them make eventual success near-certain. The decision streams
    // are seeded, so whatever happens here happens on every run.
    faults.writeFail = 0.0005;
    faults.seed = 5;
    SweepSpec spec = smallSpec();
    SweepResults res =
        SweepRunner(2).injectFaults(faults).retry({20, 0.0}).run(spec);
    setQuiet(false);

    // The campaign completes, and at least one cell needed more than
    // one attempt (else the injection never fired and the test is
    // vacuous).
    EXPECT_TRUE(res.allOk()) << res.failedCount() << " cells failed";
    unsigned maxAttempts = 0;
    for (std::size_t i = 0; i < res.size(); ++i)
        maxAttempts = std::max(maxAttempts, res.outcomeAt(i).attempts);
    EXPECT_GT(maxAttempts, 1u);
}

TEST(SweepFaults, FailedCellsAppearInCsv)
{
    setQuiet(true);
    FaultSpec faults;
    faults.corrupt = 1.0;
    SweepSpec spec = smallSpec();
    SweepResults res = SweepRunner(2).injectFaults(faults).run(spec);
    setQuiet(false);

    std::ostringstream csv;
    res.writeCsv(csv);
    std::string text = csv.str();
    EXPECT_NE(text.find("failed"), std::string::npos);
    EXPECT_NE(text.find("injected fault"), std::string::npos);
    EXPECT_EQ(text.find(",ok,"), std::string::npos);
}

} // anonymous namespace
} // namespace vmsim
