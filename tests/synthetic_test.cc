/**
 * @file
 * Tests for the synthetic workload toolkit and the three SPEC'95
 * stand-ins: determinism, address-range containment, locality
 * profiles, and the relative orderings the paper's analysis depends on
 * (vortex has the largest data-page working set; ijpeg the smallest).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"
#include "pt/page_table.hh"
#include "trace/synthetic/components.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{
namespace
{

// ------------------------------------------------------------ components

TEST(ZipfSampler, UniformWhenSkewZero)
{
    ZipfSampler z(4, 0.0);
    Random rng(1);
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 40000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(ZipfSampler, SkewFavorsLowRanks)
{
    ZipfSampler z(1000, 1.0);
    Random rng(2);
    int top10 = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        if (z.sample(rng) < 10)
            ++top10;
    // With s=1 over 1000 items, the top 10 hold ~39% of the mass.
    EXPECT_GT(top10, n / 4);
    EXPECT_LT(top10, n / 2);
}

TEST(ZipfSampler, InRange)
{
    ZipfSampler z(17, 0.8);
    Random rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 17u);
}

TEST(ZipfSampler, EmptyRejected)
{
    setQuiet(true);
    EXPECT_THROW(ZipfSampler(0, 1.0), FatalError);
    setQuiet(false);
}

/** The sampler's CDF, rebuilt independently: item i weighs 1/(i+1)^s. */
std::vector<double>
referenceCdf(std::uint64_t n, double s)
{
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = acc;
    }
    for (auto &c : cdf)
        c /= acc;
    cdf.back() = 1.0;
    return cdf;
}

std::uint64_t
referenceIndex(const std::vector<double> &cdf, double u)
{
    return static_cast<std::uint64_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
}

// Every (items, skew) geometry the workloads build, from the one-
// function diagnostics' n = 1 to gcc's 16384-record heap.
const std::uint64_t kZipfSizes[] = {1, 8, 40, 64, 1024, 16384};
const double kZipfSkews[] = {0.0, 0.5, 0.7, 0.8, 1.0, 1.2};

TEST(ZipfSampler, DrawsMatchLowerBoundReference)
{
    for (std::uint64_t n : kZipfSizes) {
        for (double s : kZipfSkews) {
            ZipfSampler z(n, s);
            const auto cdf = referenceCdf(n, s);
            Random rng(n * 1000 + static_cast<std::uint64_t>(s * 10));
            for (int i = 0; i < 1000000; ++i) {
                Random fork = rng;
                const std::uint64_t want =
                    referenceIndex(cdf, fork.uniformReal());
                ASSERT_EQ(z.sample(rng), want)
                    << "n=" << n << " s=" << s << " draw " << i;
            }
        }
    }
}

TEST(ZipfSampler, GuideMatchesBinarySearchConstruction)
{
    // The guide built with one forward cursor must equal, entry for
    // entry, one built with a std::lower_bound per bucket: for the
    // code and data samplers of gcc, vortex and ijpeg, and for
    // n = 1, 2, 1000 at every skew.
    std::vector<std::pair<std::uint64_t, double>> geometries = {
        {64, 0.8}, {16384, 1.2}, {40, 0.7}, {1024, 0.8}, {8, 0.5}};
    for (std::uint64_t n : {1, 2, 1000})
        for (double s : kZipfSkews)
            geometries.emplace_back(n, s);
    for (const auto &[n, s] : geometries) {
        ZipfSampler z(n, s);
        const auto cdf = referenceCdf(n, s);
        const double scale = static_cast<double>(n);
        auto bucket = [&](double u) {
            return std::min<std::uint64_t>(
                static_cast<std::uint64_t>(u * scale), n - 1);
        };
        for (std::uint64_t b = 0; b < n; ++b) {
            double u = static_cast<double>(b) / scale;
            while (u > 0.0 && bucket(std::nextafter(u, 0.0)) >= b)
                u = std::nextafter(u, 0.0);
            while (bucket(u) < b)
                u = std::nextafter(u, 1.0);
            ASSERT_EQ(z.guideEntry(b), referenceIndex(cdf, u))
                << "n=" << n << " s=" << s << " bucket " << b;
        }
    }
}

TEST(ZipfSampler, LookupMatchesLowerBoundAtEveryEdge)
{
    // The guide table's only risk is a u near a bucket edge or a CDF
    // value; probe both, and a few ulps either side.
    auto near = [](double x, auto &&check) {
        double lo = x, hi = x;
        check(x);
        for (int k = 0; k < 3; ++k) {
            lo = std::nextafter(lo, 0.0);
            hi = std::nextafter(hi, 1.0);
            check(lo);
            if (hi <= 1.0)
                check(hi);
        }
    };
    for (std::uint64_t n : kZipfSizes) {
        for (double s : kZipfSkews) {
            ZipfSampler z(n, s);
            const auto cdf = referenceCdf(n, s);
            auto check = [&](double u) {
                if (u < 0.0 || u > 1.0)
                    return;
                ASSERT_EQ(z.lookup(u), referenceIndex(cdf, u))
                    << "n=" << n << " s=" << s << " u=" << u;
            };
            for (std::uint64_t b = 0; b <= n; ++b)
                near(static_cast<double>(b) / static_cast<double>(n), check);
            for (double c : cdf)
                near(c, check);
        }
    }
}

TEST(StreamWalker, SequentialWithWrap)
{
    StreamWalker w(Region{0x1000, 64}, 16);
    Random rng(1);
    EXPECT_EQ(w.nextAddr(rng), 0x1000u);
    EXPECT_EQ(w.nextAddr(rng), 0x1010u);
    EXPECT_EQ(w.nextAddr(rng), 0x1020u);
    EXPECT_EQ(w.nextAddr(rng), 0x1030u);
    EXPECT_EQ(w.nextAddr(rng), 0x1000u); // wrapped
    w.restart();
    EXPECT_EQ(w.nextAddr(rng), 0x1000u);
}

TEST(PointerChase, VisitsEveryNodeOncePerLap)
{
    const std::uint64_t n = 64;
    PointerChase pc(Region{0x2000, 64 * 64}, n, 64, 5);
    Random rng(1);
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < n; ++i)
        seen.insert(pc.nextAddr(rng));
    EXPECT_EQ(seen.size(), n) << "cycle must visit every node per lap";
    // Second lap revisits exactly the same addresses.
    for (std::uint64_t i = 0; i < n; ++i)
        EXPECT_TRUE(seen.count(pc.nextAddr(rng)));
}

TEST(PointerChase, PoorSpatialLocality)
{
    PointerChase pc(Region{0, 4096 * 64}, 4096, 64, 9);
    Random rng(1);
    Addr prev = pc.nextAddr(rng);
    unsigned near = 0;
    for (int i = 0; i < 1000; ++i) {
        Addr cur = pc.nextAddr(rng);
        if (cur > prev ? cur - prev <= 128 : prev - cur <= 128)
            ++near;
        prev = cur;
    }
    // Successive nodes almost never land on neighboring lines.
    EXPECT_LT(near, 30u);
}

TEST(PointerChase, InvalidConfigs)
{
    setQuiet(true);
    EXPECT_THROW(PointerChase(Region{0, 64}, 1, 64, 1), FatalError);
    EXPECT_THROW(PointerChase(Region{0, 64}, 4, 2, 1), FatalError);
    EXPECT_THROW(PointerChase(Region{0, 64}, 4, 64, 1), FatalError);
    setQuiet(false);
}

TEST(StackModel, StaysInRegion)
{
    Region r{0x7ff00000, 64_KiB};
    StackModel s(r, 96, 0.2);
    Random rng(4);
    for (int i = 0; i < 100000; ++i) {
        Addr a = s.nextAddr(rng);
        ASSERT_GE(a, r.base);
        ASSERT_LT(a, r.end());
    }
}

TEST(StackModel, ReferencesClusterNearTop)
{
    StackModel s(Region{0, 64_KiB}, 128, 0.0); // top never moves
    Random rng(5);
    Addr top = s.top();
    for (int i = 0; i < 1000; ++i) {
        Addr a = s.nextAddr(rng);
        EXPECT_GE(a, top);
        EXPECT_LT(a, top + 128);
    }
}

TEST(StackModel, FrameUnderOneWordRejected)
{
    // frame_bytes / 4 == 0 made the word draw uniform(0), a full 64-bit
    // value: StackModel(Region{0x7ff00000, 64}, 2) emitted
    // 0x14ed56599cc933c8.
    setQuiet(true);
    EXPECT_THROW(StackModel(Region{0x7ff00000, 64}, 2), FatalError);
    EXPECT_THROW(StackModel(Region{0x7ff00000, 64}, 0), FatalError);
    setQuiet(false);
}

TEST(Rates, OutsideUnitIntervalRejected)
{
    setQuiet(true);
    EXPECT_THROW(StackModel(Region{0, 4096}, 96, 1.5), FatalError);
    EXPECT_THROW(StackModel(Region{0, 4096}, 96, std::nan("")),
                 FatalError);
    EXPECT_THROW(CodeModel(0, 4, 10, 20, 1, -0.5, 1), FatalError);
    EXPECT_THROW(CodeModel(0, 4, 10, 20, 1, 0.5, 1, std::nan("")),
                 FatalError);
    setQuiet(false);
}

/** what() of the FatalError @p make throws, or "" if it throws none. */
template <typename F>
std::string
fatalMessage(F make)
{
    setQuiet(true);
    std::string msg;
    try {
        make();
    } catch (const FatalError &e) {
        msg = e.what();
    }
    setQuiet(false);
    return msg;
}

TEST(ZipfRegionAccess, BadGeometryRejectedBeforeBuilding)
{
    // Both used to reach the ZipfSampler first: record_bytes == 0
    // divided by zero (SIGFPE), and a region under one record failed
    // as "ZipfSampler over zero items".
    EXPECT_NE(fatalMessage([] {
                  ZipfRegionAccess(Region{0, 4096}, 0, 1.0, 4, 1);
              }).find("record size must be >= 4"),
              std::string::npos);
    EXPECT_NE(fatalMessage([] {
                  ZipfRegionAccess(Region{0, 32}, 64, 1.0, 4, 1);
              }).find("region smaller than one record"),
              std::string::npos);
}

TEST(ZipfRegionAccess, StaysInRegion)
{
    Region r{0x10000000, 1_MiB};
    ZipfRegionAccess z(r, 64, 1.0, 4, 11);
    Random rng(6);
    for (int i = 0; i < 50000; ++i) {
        Addr a = z.nextAddr(rng);
        ASSERT_GE(a, r.base);
        ASSERT_LT(a, r.end());
    }
}

TEST(ZipfRegionAccess, ClusteredLayoutConcentratesPages)
{
    // Default (identity) layout: hot records share the low pages.
    Region r{0, 1_MiB};
    ZipfRegionAccess z(r, 64, 1.2, 1, 1, /*scatter=*/false);
    Random rng(7);
    std::set<Addr> pages;
    for (int i = 0; i < 20000; ++i)
        pages.insert(z.nextAddr(rng) >> 12);
    // The 1 MB region has 256 pages; the hot mass should sit in far
    // fewer... but the Zipf tail still touches many. Compare against
    // the scattered variant instead.
    ZipfRegionAccess zs(r, 64, 1.2, 1, 1, /*scatter=*/true);
    std::set<Addr> pages_scattered;
    for (int i = 0; i < 20000; ++i)
        pages_scattered.insert(zs.nextAddr(rng) >> 12);
    // Identity layout: the same number of record draws covers fewer
    // distinct *hot* pages. Measure via a small sample prefix.
    EXPECT_LE(pages.size(), pages_scattered.size());
}

TEST(ZipfRegionAccess, SpatialRuns)
{
    Region r{0, 64_KiB};
    ZipfRegionAccess z(r, 64, 0.0, 8, 13);
    Random rng(8);
    // Consecutive addresses inside a run advance by 4 bytes.
    unsigned sequential = 0;
    Addr prev = z.nextAddr(rng);
    for (int i = 0; i < 10000; ++i) {
        Addr cur = z.nextAddr(rng);
        if (cur == prev + 4)
            ++sequential;
        prev = cur;
    }
    EXPECT_GT(sequential, 4000u);
}

TEST(CodeModel, PcsStayInsideLayout)
{
    CodeModel cm(0x00400000, 16, 50, 200, 0.8, 0.5, 21);
    Random rng(9);
    for (int i = 0; i < 100000; ++i) {
        Addr pc = cm.nextPc(rng);
        ASSERT_GE(pc, 0x00400000u);
        ASSERT_LT(pc, 0x00400000u + cm.codeBytes());
        ASSERT_EQ(pc % 4, 0u);
    }
}

TEST(CodeModel, MostlySequentialFetch)
{
    CodeModel cm(0x00400000, 8, 100, 400, 0.5, 0.3, 22);
    Random rng(10);
    Addr prev = cm.nextPc(rng);
    unsigned seq = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        Addr cur = cm.nextPc(rng);
        if (cur == prev + 4)
            ++seq;
        prev = cur;
    }
    // Straight-line execution dominates, as in real code.
    EXPECT_GT(seq, n * 0.8);
}

TEST(CodeModel, InvalidConfigs)
{
    setQuiet(true);
    EXPECT_THROW(CodeModel(0, 0, 10, 20, 1, 0.5, 1), FatalError);
    EXPECT_THROW(CodeModel(0, 4, 0, 20, 1, 0.5, 1), FatalError);
    EXPECT_THROW(CodeModel(0, 4, 30, 20, 1, 0.5, 1), FatalError);
    setQuiet(false);
}

// -------------------------------------------------------------- workloads

class WorkloadTest : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadTest, DeterministicFromSeed)
{
    auto a = makeWorkload(GetParam(), 42);
    auto b = makeWorkload(GetParam(), 42);
    TraceRecord ra, rb;
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(a->next(ra));
        ASSERT_TRUE(b->next(rb));
        ASSERT_EQ(ra, rb) << "diverged at instruction " << i;
    }
}

TEST_P(WorkloadTest, DifferentSeedsDiverge)
{
    auto a = makeWorkload(GetParam(), 1);
    auto b = makeWorkload(GetParam(), 2);
    TraceRecord ra, rb;
    int same = 0;
    for (int i = 0; i < 1000; ++i) {
        a->next(ra);
        b->next(rb);
        if (ra == rb)
            ++same;
    }
    EXPECT_LT(same, 1000);
}

TEST_P(WorkloadTest, AddressesInUserSpace)
{
    auto w = makeWorkload(GetParam(), 7);
    TraceRecord r;
    for (int i = 0; i < 100000; ++i) {
        ASSERT_TRUE(w->next(r));
        ASSERT_LT(r.pc, kUserSpan);
        if (r.isMemOp()) {
            ASSERT_LT(r.daddr, kUserSpan);
        }
    }
}

TEST_P(WorkloadTest, MemOpRateReasonable)
{
    auto w = makeWorkload(GetParam(), 7);
    TraceRecord r;
    int mem = 0, stores = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        w->next(r);
        if (r.isMemOp()) {
            ++mem;
            if (r.isStore())
                ++stores;
        }
    }
    // SPEC-integer-like rates: 25-45% of instructions touch memory,
    // and stores are a minority of memory operations.
    EXPECT_GT(mem, n / 5);
    EXPECT_LT(mem, n / 2);
    EXPECT_GT(stores, 0);
    EXPECT_LT(stores, mem / 2 + mem / 4);
}

TEST_P(WorkloadTest, FootprintFitsPaperPhysicalMemory)
{
    // The paper sizes PA-RISC physical memory at 8 MB and asserts it
    // exceeds every benchmark's needs; our stand-ins must comply.
    auto w = makeWorkload(GetParam(), 7);
    TraceRecord r;
    std::set<std::uint32_t> pages;
    for (int i = 0; i < 400000; ++i) {
        w->next(r);
        pages.insert(r.pc >> 12);
        if (r.isMemOp())
            pages.insert(r.daddr >> 12);
    }
    EXPECT_LT(pages.size(), 1800u) << "workload exceeds 8MB of pages";
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest,
                         ::testing::Values("gcc", "vortex", "ijpeg"));

TEST(Workloads, FactoryNamesAndAliases)
{
    EXPECT_EQ(makeWorkload("gcc")->name(), "gcc-like");
    EXPECT_EQ(makeWorkload("gcc-like")->name(), "gcc-like");
    EXPECT_EQ(makeWorkload("vortex")->name(), "vortex-like");
    EXPECT_EQ(makeWorkload("ijpeg")->name(), "ijpeg-like");
    EXPECT_EQ(workloadNames().size(), 3u);
    setQuiet(true);
    EXPECT_THROW(makeWorkload("perl"), FatalError);
    setQuiet(false);
}

/** Count distinct data pages touched in a window. */
std::size_t
dataPageWorkingSet(const char *name, int n)
{
    auto w = makeWorkload(name, 99);
    TraceRecord r;
    std::set<std::uint32_t> pages;
    for (int i = 0; i < n; ++i) {
        w->next(r);
        if (r.isMemOp())
            pages.insert(r.daddr >> 12);
    }
    return pages.size();
}

TEST(Workloads, RelativeDataWorkingSets)
{
    // The ordering the paper's results depend on: ijpeg has the
    // smallest page working set, vortex the largest.
    std::size_t gcc = dataPageWorkingSet("gcc", 200000);
    std::size_t vortex = dataPageWorkingSet("vortex", 200000);
    std::size_t ijpeg = dataPageWorkingSet("ijpeg", 200000);
    EXPECT_LT(ijpeg, gcc);
    EXPECT_LT(gcc, vortex);
}

TEST(Workloads, IjpegHasSmallCodeFootprint)
{
    auto count_code_pages = [](const char *name) {
        auto w = makeWorkload(name, 3);
        TraceRecord r;
        std::set<std::uint32_t> pages;
        for (int i = 0; i < 100000; ++i) {
            w->next(r);
            pages.insert(r.pc >> 12);
        }
        return pages.size();
    };
    EXPECT_LT(count_code_pages("ijpeg"), count_code_pages("gcc"));
}

// ---------------------------------------------------------- pinned streams

/** FNV-1a over the fields of the first @p n records of @p w. */
std::uint64_t
streamHash(TraceSource &w, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v, int bytes) {
        for (int b = 0; b < bytes; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    TraceRecord r;
    for (std::size_t i = 0; i < n; ++i) {
        w.next(r);
        mix(r.pc, 4);
        mix(r.daddr, 4);
        mix(static_cast<std::uint64_t>(r.op), 1);
    }
    return h;
}

const char *const kAllWorkloads[] = {"gcc",    "vortex", "ijpeg",
                                     "stream", "chase",  "uniform"};

TEST(PinnedStreams, FirstMillionRecordsUnchanged)
{
    // Recorded from the generators before their hot path was
    // restructured: any change to a draw, its order or its use moves
    // these, and with them every digest and golden row downstream.
    struct Pin
    {
        const char *name;
        std::uint64_t seed;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {"gcc", 1, 0xbe8f009dbcde035fULL},
        {"gcc", 12345, 0xd5a9bd734b0b139bULL},
        {"vortex", 1, 0x76ebef7f7399e8a4ULL},
        {"vortex", 12345, 0x9df8ee1489bf2a34ULL},
        {"ijpeg", 1, 0x61a642e893fb9550ULL},
        {"ijpeg", 12345, 0x61e1a16e5b654b29ULL},
        {"stream", 1, 0x3e3108778d5dbfc4ULL},
        {"stream", 12345, 0x9d862a2e5049a273ULL},
        {"chase", 1, 0xc4b2509bbd4d491bULL},
        {"chase", 12345, 0x09fe7f46e665b1a2ULL},
        {"uniform", 1, 0x7edb9949beca8af2ULL},
        {"uniform", 12345, 0x72a5ca09cf17209dULL},
    };
    for (const Pin &p : pins) {
        auto w = makeWorkload(p.name, p.seed);
        EXPECT_EQ(streamHash(*w, 1000000), p.fnv)
            << p.name << " seed " << p.seed;
    }
}

TEST(PinnedStreams, NextBatchMatchesNext)
{
    const std::size_t n = 100000;
    for (const char *name : kAllWorkloads) {
        auto ref = makeWorkload(name, 12345);
        std::vector<TraceRecord> want(n);
        for (auto &r : want)
            ref->next(r);
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
            auto w = makeWorkload(name, 12345);
            std::vector<TraceRecord> got(n);
            for (std::size_t i = 0; i < n; i += batch)
                w->nextBatch(got.data() + i, std::min(batch, n - i));
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], want[i])
                    << name << " batch " << batch << " record " << i;
        }
    }
}

TEST(Workloads, UnboundedSource)
{
    // Synthetic sources never run dry.
    auto w = makeWorkload("gcc", 1);
    TraceRecord r;
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(w->next(r));
}

} // anonymous namespace
} // namespace vmsim
