/**
 * @file
 * Unit tests for the base module: intmath, bitfield, crc, logging,
 * random, stats, and table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "base/bitfield.hh"
#include "base/crc.hh"
#include "base/intmath.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/units.hh"

namespace vmsim
{
namespace
{

// ---------------------------------------------------------------- intmath

TEST(IntMath, IsPowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(4097));
    EXPECT_TRUE(isPowerOf2(std::uint64_t{1} << 63));
    EXPECT_FALSE(isPowerOf2(~std::uint64_t{0}));
}

TEST(IntMath, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(4095), 11u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(std::uint64_t{1} << 63), 63u);
}

TEST(IntMath, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(4), 2u);
    EXPECT_EQ(ceilLog2(4097), 13u);
}

TEST(IntMath, FloorCeilAgreeOnPowersOf2)
{
    for (unsigned b = 0; b < 63; ++b) {
        std::uint64_t v = std::uint64_t{1} << b;
        EXPECT_EQ(floorLog2(v), ceilLog2(v)) << "bit " << b;
    }
}

TEST(IntMath, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(divCeil(12, 3), 4u);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_EQ(alignUp(0x12000, 0x1000), 0x12000u);
    EXPECT_TRUE(isAligned(0x12000, 0x1000));
    EXPECT_FALSE(isAligned(0x12001, 0x1000));
}

// --------------------------------------------------------------- bitfield

TEST(Bitfield, Mask)
{
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(1), 1u);
    EXPECT_EQ(mask(12), 0xfffu);
    EXPECT_EQ(mask(64), ~std::uint64_t{0});
}

TEST(Bitfield, Bits)
{
    EXPECT_EQ(bits(0xdeadbeef, 31, 16), 0xdeadu);
    EXPECT_EQ(bits(0xdeadbeef, 15, 0), 0xbeefu);
    EXPECT_EQ(bits(0xdeadbeef, 0, 0), 1u);
    EXPECT_EQ(bits(0x80000000u, 31), 1u);
    EXPECT_EQ(bits(0x80000000u, 30), 0u);
}

TEST(Bitfield, Mbits)
{
    EXPECT_EQ(mbits(0xdeadbeef, 15, 8), 0xbe00u);
    EXPECT_EQ(mbits(0xff, 3, 0), 0xfu);
}

TEST(Bitfield, InsertBits)
{
    EXPECT_EQ(insertBits(0, 15, 8, 0xab), 0xab00u);
    EXPECT_EQ(insertBits(0xffffffff, 15, 8, 0), 0xffff00ffu);
    EXPECT_EQ(insertBits(0x1200, 15, 8, 0x34), 0x3400u);
}

TEST(Bitfield, BitsInsertRoundTrip)
{
    std::uint64_t v = 0x0123456789abcdefULL;
    for (unsigned first = 0; first < 60; first += 7) {
        unsigned last = first + 5;
        std::uint64_t field = bits(v, last, first);
        EXPECT_EQ(insertBits(v, last, first, field), v);
    }
}

TEST(Bitfield, PopCount)
{
    EXPECT_EQ(popCount(0), 0u);
    EXPECT_EQ(popCount(1), 1u);
    EXPECT_EQ(popCount(0xff), 8u);
    EXPECT_EQ(popCount(~std::uint64_t{0}), 64u);
}

// ------------------------------------------------------------------ units

TEST(Units, Literals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(64_KiB, 65536u);
    EXPECT_EQ(1_MiB, 1048576u);
    EXPECT_EQ(2_GiB, 0x80000000u);
}

// ---------------------------------------------------------------- logging

TEST(Logging, PanicThrowsPanicError)
{
    setQuiet(true);
    EXPECT_THROW(panic("boom ", 42), PanicError);
    setQuiet(false);
}

TEST(Logging, FatalThrowsFatalError)
{
    setQuiet(true);
    EXPECT_THROW(fatal("bad config: ", "x"), FatalError);
    setQuiet(false);
}

TEST(Logging, MessageConcatenation)
{
    setQuiet(true);
    try {
        fatal("value=", 7, " name=", "abc");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=abc");
    }
    setQuiet(false);
}

TEST(Logging, ConditionalHelpers)
{
    setQuiet(true);
    EXPECT_NO_THROW(panicIf(false, "never"));
    EXPECT_NO_THROW(fatalIf(false, "never"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
    setQuiet(false);
}

TEST(Logging, FatalIsNotPanic)
{
    setQuiet(true);
    // The two error classes must stay distinguishable for callers.
    EXPECT_THROW(
        {
            try {
                fatal("user error");
            } catch (const PanicError &) {
                FAIL() << "fatal threw PanicError";
            }
        },
        FatalError);
    setQuiet(false);
}

// ----------------------------------------------------------------- random

TEST(Random, DeterministicFromSeed)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Random, ZeroSeedWorks)
{
    Random r(0);
    // Must not get stuck at zero.
    std::set<std::uint64_t> vals;
    for (int i = 0; i < 16; ++i)
        vals.insert(r.next());
    EXPECT_GT(vals.size(), 14u);
}

TEST(Random, UniformBounds)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniform(17), 17u);
}

TEST(Random, UniformCoversRange)
{
    Random r(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.uniform(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Random, UniformRangeInclusive)
{
    Random r(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = r.uniformRange(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        hit_lo |= (v == 3);
        hit_hi |= (v == 6);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Random, UniformRealInUnitInterval)
{
    Random r(11);
    double sum = 0;
    for (int i = 0; i < 20000; ++i) {
        double v = r.uniformReal();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(Random, ChanceExtremes)
{
    Random r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
        EXPECT_FALSE(r.chance(-1.0));
        EXPECT_TRUE(r.chance(2.0));
    }
}

TEST(Random, ChanceFrequency)
{
    Random r(17);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        if (r.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / 50000.0, 0.25, 0.01);
}

TEST(Random, BernoulliMatchesChance)
{
    // Bernoulli(p) is chance(p) as one integer compare: same results
    // and the same draws consumed, so the streams stay in step.
    const double ps[] = {0.0,  4.9e-324, 0x1.0p-53, 0.03,
                         0.12, 0.35,     0.5,       1.0 - 0x1.0p-53,
                         1.0};
    for (double p : ps) {
        const Bernoulli b(p);
        Random a(29), ref(29);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(a.chance(b), ref.chance(p))
                << "p=" << p << " draw " << i;
        for (int i = 0; i < 16; ++i)
            ASSERT_EQ(a.next(), ref.next()) << "p=" << p;
    }
}

TEST(Random, BernoulliExactAtTheDrawnValue)
{
    // p equal to the next uniformReal() is where a rounded threshold
    // would go wrong: u < p is false at p == u, true one ulp above.
    const double u = Random(31).uniformReal();
    for (double p : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
        Random a(31);
        EXPECT_EQ(a.chance(Bernoulli(p)), u < p) << "p=" << p;
    }
}

TEST(Random, BernoulliRejectsOutOfRange)
{
    setQuiet(true);
    EXPECT_THROW(Bernoulli(-0.1), FatalError);
    EXPECT_THROW(Bernoulli(1.5), FatalError);
    EXPECT_THROW(Bernoulli(std::nan("")), FatalError);
    setQuiet(false);
}

TEST(Random, GeometricMean)
{
    Random r(19);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(0.5));
    // E[failures before success] = (1-p)/p = 1.
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(Random, GeometricCap)
{
    Random r(23);
    for (int i = 0; i < 100; ++i)
        EXPECT_LE(r.geometric(1e-12, 50), 50u);
    EXPECT_EQ(r.geometric(0.0, 10), 10u);
    EXPECT_EQ(r.geometric(1.0), 0u);
}

// ------------------------------------------------------------------ stats

TEST(Distribution, Empty)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.variance(), 0.0);
    EXPECT_EQ(d.stddev(), 0.0);
}

TEST(Distribution, SingleSample)
{
    Distribution d;
    d.sample(5.0);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.mean(), 5.0);
    EXPECT_EQ(d.min(), 5.0);
    EXPECT_EQ(d.max(), 5.0);
    EXPECT_EQ(d.variance(), 0.0);
}

TEST(Distribution, KnownMoments)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_NEAR(d.variance(), 4.0, 1e-12);
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(d.sum(), 40.0);
}

TEST(Distribution, Reset)
{
    Distribution d;
    d.sample(1.0);
    d.sample(2.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0.0);
    d.sample(10.0);
    EXPECT_EQ(d.min(), 10.0);
}

TEST(Distribution, NegativeValues)
{
    Distribution d;
    d.sample(-3.0);
    d.sample(3.0);
    EXPECT_EQ(d.min(), -3.0);
    EXPECT_EQ(d.max(), 3.0);
    EXPECT_EQ(d.mean(), 0.0);
}

TEST(Histogram, Bucketing)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(0.0);  // bucket 0
    h.sample(1.99); // bucket 0
    h.sample(2.0);  // bucket 1
    h.sample(9.99); // bucket 4
    h.sample(-1.0); // underflow
    h.sample(10.0); // overflow (hi is exclusive)
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, BucketEdges)
{
    Histogram h(0.0, 4.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 3.0);
}

TEST(Histogram, InvalidConstruction)
{
    setQuiet(true);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), FatalError);
    EXPECT_THROW(Histogram(1.0, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(2.0, 1.0, 4), FatalError);
    setQuiet(false);
}

TEST(Histogram, Reset)
{
    Histogram h(0.0, 10.0, 2);
    h.sample(1.0);
    h.sample(100.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.bucket(0), 0u);
}

TEST(CounterGroup, AddAndGet)
{
    CounterGroup g;
    EXPECT_EQ(g.get("x"), 0u);
    g.add("x");
    g.add("x", 4);
    g.add("y", 2);
    EXPECT_EQ(g.get("x"), 5u);
    EXPECT_EQ(g.get("y"), 2u);
    EXPECT_EQ(g.entries().size(), 2u);
    EXPECT_EQ(g.entries()[0].first, "x");
}

TEST(CounterGroup, Reset)
{
    CounterGroup g;
    g.add("a", 3);
    g.reset();
    EXPECT_EQ(g.get("a"), 0u);
    EXPECT_TRUE(g.entries().empty());
}

// ------------------------------------------------------------------ table

TEST(TextTable, AlignedOutput)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, ShortRowsPadded)
{
    TextTable t;
    t.setHeader({"a", "b", "c"});
    t.addRow({"only"});
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.numCols(), 3u);
}

TEST(TextTable, OverlongRowPanics)
{
    setQuiet(true);
    TextTable t;
    t.setHeader({"a"});
    EXPECT_THROW(t.addRow({"1", "2"}), PanicError);
    EXPECT_THROW(
        {
            TextTable u;
            u.addRow({"1"});
        },
        PanicError);
    setQuiet(false);
}

TEST(TextTable, CsvQuoting)
{
    TextTable t;
    t.setHeader({"k", "v"});
    t.addRow({"has,comma", "has\"quote"});
    std::ostringstream oss;
    t.printCsv(oss);
    std::string out = oss.str();
    EXPECT_NE(out.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(out.find("\"has\"\"quote\""), std::string::npos);
}

TEST(TextTable, FmtPrecision)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(1.0, 3), "1.000");
}


// ------------------------------------------------------------------- json

TEST(Json, Scalars)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(false).dump(), "false");
    EXPECT_EQ(Json(42).dump(), "42");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(),
              "-1"); // u64 above int64 range wraps; use doubles there
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, StringEscaping)
{
    EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
    EXPECT_EQ(Json("line\nbreak").dump(), "\"line\\nbreak\"");
    EXPECT_EQ(Json("back\\slash").dump(), "\"back\\\\slash\"");
    EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ArraysAndObjects)
{
    Json arr = Json::array();
    arr.push(1).push("two").push(Json());
    EXPECT_EQ(arr.dump(), "[1,\"two\",null]");

    Json obj = Json::object();
    obj.set("a", 1);
    obj.set("b", Json::array().push(2));
    EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":[2]}");
}

TEST(Json, SetOverwritesInPlace)
{
    Json obj = Json::object();
    obj.set("k", 1);
    obj.set("other", 2);
    obj.set("k", 3);
    EXPECT_EQ(obj.dump(), "{\"k\":3,\"other\":2}");
}

TEST(Json, NullConvertsOnFirstUse)
{
    Json j;
    j.push(1);
    EXPECT_EQ(j.dump(), "[1]");
    Json o;
    o.set("x", 1);
    EXPECT_EQ(o.dump(), "{\"x\":1}");
}

TEST(Json, TypeMisusePanics)
{
    setQuiet(true);
    Json arr = Json::array();
    EXPECT_THROW(arr.set("k", 1), PanicError);
    Json obj = Json::object();
    EXPECT_THROW(obj.push(1), PanicError);
    setQuiet(false);
}

TEST(Json, PrettyPrinting)
{
    Json obj = Json::object();
    obj.set("a", 1);
    std::string out = obj.dump(2);
    EXPECT_NE(out.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, QuotedEscapesForStreamingWriters)
{
    EXPECT_EQ(Json::quoted("plain"), "\"plain\"");
    EXPECT_EQ(Json::quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Distribution, SingleNegativeSample)
{
    // min/max must initialize from the first sample even when it is
    // below the zero-initialized state.
    Distribution d;
    d.sample(-7.5);
    EXPECT_EQ(d.min(), -7.5);
    EXPECT_EQ(d.max(), -7.5);
    EXPECT_EQ(d.mean(), -7.5);
    EXPECT_EQ(d.variance(), 0.0);
}

TEST(Distribution, AllNegativeSamples)
{
    Distribution d;
    for (double v : {-1.0, -2.0, -3.0})
        d.sample(v);
    EXPECT_EQ(d.min(), -3.0);
    EXPECT_EQ(d.max(), -1.0);
    EXPECT_DOUBLE_EQ(d.mean(), -2.0);
    EXPECT_DOUBLE_EQ(d.sum(), -6.0);
}

TEST(Histogram, AllSamplesOutOfRange)
{
    Histogram h(0.0, 10.0, 4);
    h.sample(-5.0);
    h.sample(-0.001);
    h.sample(10.0);
    h.sample(1e9);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.underflow(), 2u);
    EXPECT_EQ(h.overflow(), 2u);
    for (unsigned i = 0; i < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucket(i), 0u);
}

TEST(Histogram, BucketLoCoversFullRange)
{
    Histogram h(2.0, 10.0, 4);
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 2.0);
    // bucketLo(numBuckets) is the exclusive upper bound of the range.
    EXPECT_DOUBLE_EQ(h.bucketLo(h.numBuckets()), 10.0);
}

TEST(Histogram, NegativeRange)
{
    Histogram h(-10.0, -2.0, 4);
    h.sample(-9.0); // bucket 0
    h.sample(-3.0); // bucket 3
    h.sample(-11.0);
    h.sample(-1.0);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, LogSpacedBucketing)
{
    // Edges grow geometrically: [1,10) [10,100) [100,1000).
    Histogram h = Histogram::logSpaced(1.0, 1000.0, 3);
    EXPECT_TRUE(h.isLog());
    EXPECT_DOUBLE_EQ(h.bucketLo(0), 1.0);
    EXPECT_NEAR(h.bucketLo(1), 10.0, 1e-9);
    EXPECT_NEAR(h.bucketLo(2), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(h.bucketLo(3), 1000.0);
    h.sample(1.0);   // bucket 0
    h.sample(9.99);  // bucket 0
    h.sample(10.1);  // bucket 1
    h.sample(999.0); // bucket 2
    h.sample(0.5);   // underflow
    h.sample(1e6);   // overflow
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, LogSpacedRequiresPositiveLo)
{
    setQuiet(true);
    EXPECT_THROW(Histogram::logSpaced(0.0, 100.0, 4), FatalError);
    EXPECT_THROW(Histogram::logSpaced(-1.0, 100.0, 4), FatalError);
    setQuiet(false);
}

TEST(Histogram, MergeFoldsCountsAndChecksGeometry)
{
    Histogram a = Histogram::logSpaced(1.0, 100.0, 4);
    Histogram b = Histogram::logSpaced(1.0, 100.0, 4);
    a.sample(2.0);
    a.sample(200.0); // overflow
    b.sample(2.0);
    b.sample(0.1); // underflow
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.underflow(), 1u);
    EXPECT_EQ(a.overflow(), 1u);
    EXPECT_EQ(a.bucket(0), 2u);

    Histogram uniform(1.0, 100.0, 4);
    EXPECT_FALSE(a.sameGeometry(uniform));
    setQuiet(true);
    EXPECT_THROW(a.merge(uniform), FatalError);
    setQuiet(false);
}

TEST(Histogram, SubtractRemovesSnapshot)
{
    Histogram cur = Histogram::logSpaced(1.0, 100.0, 4);
    cur.sample(2.0);
    Histogram prev = cur; // snapshot
    cur.sample(50.0);
    cur.sample(50.0);
    cur.subtract(prev);
    EXPECT_EQ(cur.count(), 2u);
    EXPECT_EQ(cur.bucket(0), 0u);
}

TEST(Histogram, PercentileEmptyIsZero)
{
    Histogram h = Histogram::logSpaced(1.0, 100.0, 4);
    EXPECT_EQ(h.percentile(0.5), 0.0);
    EXPECT_EQ(h.percentile(0.99), 0.0);
}

TEST(Histogram, PercentileSingleBucket)
{
    // All mass in one bucket: every percentile interpolates within it.
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 100; ++i)
        h.sample(3.0); // bucket 1 = [2, 4)
    const double p50 = h.percentile(0.5);
    const double p99 = h.percentile(0.99);
    EXPECT_GE(p50, 2.0);
    EXPECT_LE(p50, 4.0);
    EXPECT_GE(p99, p50);
    EXPECT_LE(p99, 4.0);
}

TEST(Histogram, PercentileMonotoneAndBounded)
{
    Histogram h = Histogram::logSpaced(1.0, 1e6, 24);
    for (double v : {2.0, 3.0, 17.0, 450.0, 9000.0, 2e6, 0.5})
        h.sample(v);
    // Overflow reports hi, underflow reports lo.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e6);
    double prev = 0.0;
    for (double p : {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double v = h.percentile(p);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

/** Bucket geometry for the integer-path equivalence tests. */
struct HistGeom
{
    double lo;
    double hi;
    unsigned n;
    bool log;

    Histogram
    make() const
    {
        return log ? Histogram::logSpaced(lo, hi, n) : Histogram(lo, hi, n);
    }
};

/**
 * The bin sample(double(v)) must pick, spelled out from the bucket
 * formula independently of Histogram: 0 is underflow, 1..n the
 * buckets, n + 1 overflow.
 */
std::size_t
formulaBin(const HistGeom &g, double v)
{
    if (v < g.lo)
        return 0;
    if (v >= g.hi)
        return g.n + 1;
    const double ratio = std::log(g.hi / g.lo) / g.n;
    const double width = (g.hi - g.lo) / g.n;
    auto idx = g.log ? static_cast<std::size_t>(std::log(v / g.lo) / ratio)
                     : static_cast<std::size_t>((v - g.lo) / width);
    return std::min<std::size_t>(idx, g.n - 1) + 1;
}

Counter
binCount(const Histogram &h, std::size_t bin)
{
    if (bin == 0)
        return h.underflow();
    if (bin > h.numBuckets())
        return h.overflow();
    return h.bucket(static_cast<unsigned>(bin - 1));
}

/**
 * Feeds integers through sampleCount() one at a time and checks each
 * lands in exactly the bin the formula names (the total grows by one
 * and that bin by one, so no other bin moved).
 */
class BinChecker
{
  public:
    explicit BinChecker(const HistGeom &g) : g_(g), h_(g.make()) {}

    void
    check(Counter v)
    {
        const std::size_t want = formulaBin(g_, static_cast<double>(v));
        const Counter before = binCount(h_, want);
        const Counter total = h_.count();
        h_.sampleCount(v);
        ++checked_;
        if (h_.count() != total + 1 || binCount(h_, want) != before + 1) {
            if (mismatches_++ < 10)
                ADD_FAILURE() << h_.geometryString() << ": sampleCount("
                              << v << ") missed bin " << want;
        }
    }

    /** Every integer in [a, b] (clamped at 0). */
    void
    range(double a, double b)
    {
        const Counter first = a <= 0.0 ? 0 : static_cast<Counter>(a);
        const Counter last = static_cast<Counter>(b);
        for (Counter v = first; v <= last; ++v)
            check(v);
    }

    /** +-@p radius around the rounded lower edge of every bucket. */
    void
    edges(double radius)
    {
        for (unsigned i = 0; i <= g_.n; ++i) {
            const double e = std::round(h_.bucketLo(i));
            range(e - radius, e + radius);
        }
    }

    std::uint64_t checked() const { return checked_; }
    unsigned mismatches() const { return mismatches_; }

  private:
    HistGeom g_;
    Histogram h_;
    std::uint64_t checked_ = 0;
    unsigned mismatches_ = 0;
};

TEST(HistogramInt, CycleGeometryMatchesFormulaForEveryInteger)
{
    BinChecker c({1.0, 1e6, 24, true});
    c.range(0.0, 1e6 + 1000);
    EXPECT_EQ(c.checked(), 1001001u);
    EXPECT_EQ(c.mismatches(), 0u);
}

TEST(HistogramInt, ResidencyGeometryMatchesFormula)
{
    BinChecker c({1.0, 1e8, 32, true});
    c.range(0.0, double(1 << 20) - 1);
    c.edges(4096.0);
    std::mt19937_64 rng(20260417);
    for (int i = 0; i < 1000000; ++i)
        c.check(rng() & (Histogram::kIntBound - 1));
    // Log-uniform draws too, so every bucket (not just overflow) gets
    // random integers.
    for (int i = 0; i < 1000000; ++i)
        c.check(rng() >> (24 + rng() % 40));
    EXPECT_EQ(c.mismatches(), 0u);
}

TEST(HistogramInt, OddGeometriesMatchFormula)
{
    const HistGeom geoms[] = {
        {0.5, 1000.0, 10, true},     // lo below 1
        {3.0, 1e5, 16, true},        // lo above 1
        {1.0, 100.0, 1, true},       // one log bucket
        {2.0, 9.0, 1, false},        // one uniform bucket
        {0.0, 100.0, 7, false},      // non-integer uniform width
        {-10.5, 20.25, 9, false},    // negative, fractional bounds
        {0.0, 512.0, 32, false},     // 16 edges an octave: path off
        {1.0, 0x1p41, 41, true},     // hi >= kIntBound: path off
        {0.0, 1e13, 10, false},      // hi >= kIntBound: path off
        {1.0, 0x1p40 - 1.0, 40, true}, // just below kIntBound: path on
    };
    std::mt19937_64 rng(7);
    for (const HistGeom &g : geoms) {
        BinChecker c(g);
        c.range(0.0, 65536.0);
        c.edges(256.0);
        for (int i = 0; i < 100000; ++i)
            c.check(rng() >> (20 + rng() % 44));
        for (Counter v : {Histogram::kIntBound - 1, Histogram::kIntBound,
                          Histogram::kIntBound + 1, ~Counter(0)})
            c.check(v);
        EXPECT_EQ(c.mismatches(), 0u) << g.make().geometryString();
    }
}

/** Every observable of two histograms agrees. */
void
expectSameHistogram(const Histogram &a, const Histogram &b)
{
    ASSERT_TRUE(a.sameGeometry(b));
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.underflow(), b.underflow());
    EXPECT_EQ(a.overflow(), b.overflow());
    for (unsigned i = 0; i < a.numBuckets(); ++i)
        EXPECT_EQ(a.bucket(i), b.bucket(i)) << "bucket " << i;
    for (double p : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0})
        EXPECT_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
    EXPECT_EQ(a.toString("h"), b.toString("h"));
}

TEST(HistogramInt, CopyMergeSubtractPercentileUnchanged)
{
    for (const HistGeom &g : {HistGeom{1.0, 1e8, 32, true},
                              HistGeom{1.0, 1e6, 24, true},
                              HistGeom{0.0, 100.0, 7, false}}) {
        std::mt19937_64 rng(99);
        std::vector<Counter> vals;
        for (int i = 0; i < 20000; ++i)
            vals.push_back(rng() >> (30 + rng() % 34));
        Histogram viaDouble = g.make(), viaCount = g.make();
        for (std::size_t i = 0; i < vals.size() / 2; ++i) {
            viaDouble.sample(static_cast<double>(vals[i]));
            viaCount.sampleCount(vals[i]);
        }
        expectSameHistogram(viaDouble, viaCount);

        // A copy shares the edge table but not the counts.
        Histogram snapD = viaDouble, snapC = viaCount;
        for (std::size_t i = vals.size() / 2; i < vals.size(); ++i) {
            viaDouble.sample(static_cast<double>(vals[i]));
            viaCount.sampleCount(vals[i]);
        }
        expectSameHistogram(viaDouble, viaCount);
        expectSameHistogram(snapD, snapC);
        EXPECT_LT(snapC.count(), viaCount.count());

        Histogram deltaD = viaDouble, deltaC = viaCount;
        deltaD.subtract(snapD);
        deltaC.subtract(snapC);
        expectSameHistogram(deltaD, deltaC);

        deltaD.merge(snapD);
        deltaC.merge(snapC);
        expectSameHistogram(deltaD, viaCount);
        expectSameHistogram(deltaC, viaDouble);
    }
}

TEST(Histogram, NaNSampleIsFatalAndCountsNothing)
{
    setQuiet(true);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (Histogram h : {Histogram(0.0, 10.0, 5),
                        Histogram::logSpaced(1.0, 1e6, 24)}) {
        h.sample(3.0);
        const std::string before = h.toString("h");
        EXPECT_THROW(h.sample(nan), FatalError);
        EXPECT_EQ(h.count(), 1u);
        EXPECT_EQ(h.toString("h"), before);
    }
    setQuiet(false);
}

TEST(Histogram, NonFiniteRangeIsFatal)
{
    setQuiet(true);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(Histogram(0.0, inf, 4), FatalError);
    EXPECT_THROW(Histogram(-inf, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram(nan, 1.0, 4), FatalError);
    EXPECT_THROW(Histogram::logSpaced(1.0, nan, 4), FatalError);
    setQuiet(false);
}

TEST(Histogram, FailedSubtractLeavesHistogramUnchanged)
{
    // other's underflow and bucket 0 fit, but its bucket 3 does not:
    // the fatal must fire before anything is decremented.
    Histogram cur(0.0, 10.0, 4), other(0.0, 10.0, 4);
    for (double v : {-1.0, -2.0, 0.5, 11.0})
        cur.sample(v);
    for (double v : {-1.0, 0.5, 9.0})
        other.sample(v);
    const Histogram snapshot = cur;
    setQuiet(true);
    EXPECT_THROW(cur.subtract(other), FatalError);
    setQuiet(false);
    expectSameHistogram(cur, snapshot);
    EXPECT_EQ(cur.count(), 4u);
    EXPECT_EQ(cur.underflow(), 2u);
    EXPECT_EQ(cur.bucket(0), 1u);
    EXPECT_EQ(cur.overflow(), 1u);
}

TEST(CounterGroup, InsertionOrderSurvivesManyKeys)
{
    // The hash index must not disturb the reported entry order.
    CounterGroup g;
    std::vector<std::string> keys;
    for (int i = 0; i < 100; ++i)
        keys.push_back("key" + std::to_string((i * 37) % 100));
    for (const std::string &k : keys)
        g.add(k);
    ASSERT_EQ(g.entries().size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(g.entries()[i].first, keys[i]);
        EXPECT_EQ(g.get(keys[i]), 1u);
    }
}

TEST(CounterGroup, ReuseAfterReset)
{
    CounterGroup g;
    g.add("a", 3);
    g.add("b", 1);
    g.reset();
    g.add("b", 7);
    EXPECT_EQ(g.get("a"), 0u);
    EXPECT_EQ(g.get("b"), 7u);
    ASSERT_EQ(g.entries().size(), 1u);
    EXPECT_EQ(g.entries()[0].first, "b");
}

TEST(LogLevel, SetterReturnsPreviousAndGetterAgrees)
{
    LogLevel original = setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    EXPECT_EQ(setLogLevel(LogLevel::Silent), LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(original);
}

TEST(LogLevel, LevelsFilterWarnAndInform)
{
    // warn()/inform() write to stderr; redirect it to observe them.
    LogLevel original = logLevel();
    auto emits = [](LogLevel level) {
        setLogLevel(level);
        testing::internal::CaptureStderr();
        warn("w");
        inform("i");
        std::string out = testing::internal::GetCapturedStderr();
        return std::make_pair(out.find("warn: w") != std::string::npos,
                              out.find("info: i") != std::string::npos);
    };

    auto [warn_i, info_i] = emits(LogLevel::Info);
    EXPECT_TRUE(warn_i);
    EXPECT_TRUE(info_i);
    auto [warn_w, info_w] = emits(LogLevel::Warn);
    EXPECT_TRUE(warn_w);
    EXPECT_FALSE(info_w);
    auto [warn_s, info_s] = emits(LogLevel::Silent);
    EXPECT_FALSE(warn_s);
    EXPECT_FALSE(info_s);
    setLogLevel(original);
}

TEST(LogLevel, QuietOverridesLevel)
{
    LogLevel original = setLogLevel(LogLevel::Info);
    setQuiet(true);
    testing::internal::CaptureStderr();
    warn("suppressed");
    inform("suppressed");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    setQuiet(false);
    setLogLevel(original);
}


TEST(Json, DoubleDumpParsesBackExactly)
{
    // Regression: numbers were emitted with %.10g, so doubles needing
    // more than 10 significant digits did not survive a dump/parse
    // round trip. The writer now picks the shortest round-trippable
    // precision.
    const double values[] = {
        0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-17, 1e300, -2.5e-8,
        123456789.123456789, 3.141592653589793, 0.30000000000000004,
    };
    for (double v : values) {
        std::string text = Json(v).dump();
        auto parsed = Json::parse(text);
        ASSERT_TRUE(parsed.ok()) << text;
        EXPECT_EQ(parsed.value().asDouble(), v) << text;
    }
    // Short representations stay short.
    EXPECT_EQ(Json(1.5).dump(), "1.5");
    EXPECT_EQ(Json(0.25).dump(), "0.25");
}

// -------------------------------------------------------------------- crc

/** Bit-at-a-time IEEE CRC32: the definition, with no tables. */
std::uint32_t
crc32Bitwise(const unsigned char *p, std::size_t len, std::uint32_t seed = 0)
{
    std::uint32_t c = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<unsigned char> out(n);
    for (auto &b : out)
        b = static_cast<unsigned char>(rng());
    return out;
}

/** One CRC32 implementation, named for failure messages. */
struct CrcPath
{
    const char *name;
    std::uint32_t (*fn)(const void *, std::size_t, std::uint32_t);
};

/** Every path this host runs: the table always, the folding kernel if
 *  the CPU has it. */
std::vector<CrcPath>
crcPaths()
{
    std::vector<CrcPath> paths{{"table", detail::crc32Table}};
    if (detail::hasFoldedCrc())
        paths.push_back({"folded", detail::crc32Folded});
    return paths;
}

TEST(Crc32, CheckValue)
{
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    for (const CrcPath &path : crcPaths()) {
        EXPECT_EQ(path.fn("123456789", 9, 0), 0xCBF43926u) << path.name;
        EXPECT_EQ(path.fn(nullptr, 0, 0), 0u) << path.name;
    }
}

TEST(Crc32, EveryShortLengthAndAlignmentMatchesBitwise)
{
    // Lengths to 1 KiB at every offset within a 16-byte lane: the
    // folding kernel's 64-byte minimum, its 64-byte and 16-byte folds,
    // the table path's 16-byte loop, and every tail after either.
    const std::vector<unsigned char> buf = randomBytes(1024 + 16, 1);
    const std::vector<CrcPath> paths = crcPaths();
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::uint32_t want = crc32Bitwise(buf.data() + off, len);
            for (const CrcPath &path : paths)
                ASSERT_EQ(path.fn(buf.data() + off, len, 0), want)
                    << path.name << " offset " << off << " length " << len;
        }
}

TEST(Crc32, RandomBuffersUpTo64KiBMatchBitwise)
{
    std::mt19937 rng(7);
    const std::vector<CrcPath> paths = crcPaths();
    for (int i = 0; i < 24; ++i) {
        const std::size_t len = rng() % (64 * 1024 + 1);
        const std::vector<unsigned char> buf = randomBytes(len, rng());
        const std::uint32_t want = crc32Bitwise(buf.data(), len);
        for (const CrcPath &path : paths)
            ASSERT_EQ(path.fn(buf.data(), len, 0), want)
                << path.name << " length " << len;
        ASSERT_EQ(crc32(buf.data(), len),
                  detail::crc32Table(buf.data(), len))
            << "length " << len;
    }
}

TEST(Crc32, SeedChainingEqualsOneCrcOverConcatenation)
{
    // Cuts on both sides of the folding kernel's 64-byte minimum and of
    // its 16-byte single folds, and at one replay chunk (4096 records,
    // 49,152 bytes).
    const std::vector<unsigned char> buf = randomBytes(49152 + 5000, 3);
    const std::uint32_t whole = crc32Bitwise(buf.data(), buf.size());
    for (const CrcPath &path : crcPaths())
        for (std::size_t cut : {0u, 1u, 7u, 16u, 17u, 63u, 64u, 65u, 79u,
                                80u, 127u, 128u, 2500u, 4999u, 5000u,
                                49152u, 54152u}) {
            const std::uint32_t head = path.fn(buf.data(), cut, 0);
            EXPECT_EQ(path.fn(buf.data() + cut, buf.size() - cut, head),
                      whole)
                << path.name << " cut " << cut;
        }
    EXPECT_EQ(crc32Bitwise(buf.data() + 100, 900,
                           crc32Bitwise(buf.data(), 100)),
              crc32(buf.data(), 1000));

    // One 4 MiB buffer: many 64-byte folds, whole and chained.
    const std::vector<unsigned char> big = randomBytes(4 << 20, 11);
    const std::uint32_t bigWhole = crc32Bitwise(big.data(), big.size());
    EXPECT_EQ(crc32(big.data(), big.size()), bigWhole);
    for (const CrcPath &path : crcPaths()) {
        EXPECT_EQ(path.fn(big.data(), big.size(), 0), bigWhole) << path.name;
        const std::size_t cut = (2 << 20) + 5;
        EXPECT_EQ(path.fn(big.data() + cut, big.size() - cut,
                          path.fn(big.data(), cut, 0)),
                  bigWhole)
            << path.name;
    }
}

} // anonymous namespace
} // namespace vmsim
