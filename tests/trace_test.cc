/**
 * @file
 * Tests for the trace record types, the VMT1 binary file format
 * (round-tripping, header validation, truncation detection, rewind)
 * and the PrefetchedTrace decorator (stream identity, errors,
 * shutdown).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hh"
#include "base/logging.hh"
#include "trace/prefetch.hh"
#include "trace/synthetic/workloads.hh"
#include "trace/trace.hh"
#include "trace/trace_file.hh"

namespace vmsim
{
namespace
{

/** Temp-file helper that cleans up after itself. */
class TempFile
{
  public:
    TempFile()
    {
        char tmpl[] = "/tmp/vmsim_trace_XXXXXX";
        int fd = mkstemp(tmpl);
        if (fd >= 0)
            ::close(fd);
        path_ = tmpl;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(TraceRecord, Predicates)
{
    TraceRecord r{0x1000, 0x2000, MemOp::None};
    EXPECT_FALSE(r.isMemOp());
    EXPECT_FALSE(r.isStore());
    r.op = MemOp::Load;
    EXPECT_TRUE(r.isMemOp());
    EXPECT_FALSE(r.isStore());
    r.op = MemOp::Store;
    EXPECT_TRUE(r.isMemOp());
    EXPECT_TRUE(r.isStore());
}

TEST(TraceRecord, Equality)
{
    TraceRecord a{1, 2, MemOp::Load};
    TraceRecord b{1, 2, MemOp::Load};
    TraceRecord c{1, 2, MemOp::Store};
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a == c);
}

TEST(TraceFile, RoundTrip)
{
    TempFile tf;
    std::vector<TraceRecord> recs = {
        {0x00400000, 0, MemOp::None},
        {0x00400004, 0x10000000, MemOp::Load},
        {0x00400008, 0x7fff0000, MemOp::Store},
        {0xfffffffc, 0xffffffff, MemOp::Load},
    };
    {
        TraceFileWriter w(tf.path());
        for (const auto &r : recs)
            w.write(r);
        w.close();
        EXPECT_EQ(w.recordsWritten(), recs.size());
    }
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.recordCount(), recs.size());
    TraceRecord rec;
    for (const auto &expect : recs) {
        ASSERT_TRUE(r.next(rec));
        EXPECT_EQ(rec, expect);
    }
    EXPECT_FALSE(r.next(rec));
    EXPECT_EQ(r.recordsRead(), recs.size());
}

TEST(TraceFile, EmptyTrace)
{
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        w.close();
    }
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.recordCount(), 0u);
    TraceRecord rec;
    EXPECT_FALSE(r.next(rec));
}

TEST(TraceFile, LargeTraceCrossesBuffering)
{
    TempFile tf;
    const Counter n = 10000; // > one 4096-record I/O buffer
    {
        TraceFileWriter w(tf.path());
        for (Counter i = 0; i < n; ++i)
            w.write(TraceRecord{static_cast<std::uint32_t>(i * 4),
                                static_cast<std::uint32_t>(i),
                                i % 3 == 0 ? MemOp::Load : MemOp::None});
        w.close();
    }
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.recordCount(), n);
    TraceRecord rec;
    Counter i = 0;
    while (r.next(rec)) {
        ASSERT_EQ(rec.pc, i * 4);
        ++i;
    }
    EXPECT_EQ(i, n);
}

TEST(TraceFile, Rewind)
{
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        w.write(TraceRecord{4, 0, MemOp::None});
        w.write(TraceRecord{8, 0, MemOp::None});
        w.close();
    }
    TraceFileReader r(tf.path());
    TraceRecord rec;
    while (r.next(rec)) {
    }
    r.rewind();
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.pc, 4u);
    EXPECT_EQ(r.recordsRead(), 1u);
}

TEST(TraceFile, DestructorClosesCleanly)
{
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        w.write(TraceRecord{4, 0, MemOp::None});
        // no explicit close(): destructor must patch the header.
    }
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.recordCount(), 1u);
}

TEST(TraceFile, MissingFileIsFatal)
{
    setQuiet(true);
    EXPECT_THROW(TraceFileReader("/nonexistent/vmsim.trace"), FatalError);
    setQuiet(false);
}

TEST(TraceFile, BadMagicIsFatal)
{
    setQuiet(true);
    TempFile tf;
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "wb");
        std::fputs("NOTATRACEFILE___", f);
        std::fclose(f);
    }
    EXPECT_THROW(TraceFileReader r(tf.path()), FatalError);
    setQuiet(false);
}

TEST(TraceFile, ShortHeaderIsFatal)
{
    setQuiet(true);
    TempFile tf;
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "wb");
        std::fputs("VMT1", f);
        std::fclose(f);
    }
    EXPECT_THROW(TraceFileReader r(tf.path()), FatalError);
    setQuiet(false);
}

TEST(TraceFile, CorruptOpByteIsFatal)
{
    setQuiet(true);
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        w.write(TraceRecord{4, 0, MemOp::None});
        w.close();
    }
    // Corrupt the op byte (offset 8 within the record). The CRC check
    // fires first and still names record 0.
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "rb+");
        std::fseek(f, kTraceHeaderBytes + 8, SEEK_SET);
        std::fputc(0x7f, f);
        std::fclose(f);
    }
    TraceFileReader r(tf.path());
    TraceRecord rec;
    EXPECT_THROW(r.next(rec), FatalError);
    setQuiet(false);
}

TEST(TraceFile, CorruptPayloadByteIsDetectedByCrc)
{
    // Pre-CRC, a flipped bit in pc/daddr replayed silently into wrong
    // results; version 2 catches it with the exact record index.
    setQuiet(true);
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        for (int i = 0; i < 3; ++i)
            w.write(TraceRecord{static_cast<std::uint32_t>(4 * i), 96,
                                MemOp::Load});
        w.close();
    }
    // Flip a bit in record 1's daddr field (offset 4 in the record).
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "rb+");
        long off =
            static_cast<long>(kTraceHeaderBytes + kTraceRecordBytes + 4);
        std::fseek(f, off, SEEK_SET);
        int b = std::fgetc(f);
        std::fseek(f, off, SEEK_SET);
        std::fputc(b ^ 0x10, f);
        std::fclose(f);
    }
    TraceFileReader r(tf.path());
    TraceRecord rec;
    ASSERT_TRUE(r.next(rec)); // record 0 is intact
    try {
        r.next(rec);
        FAIL() << "corrupt payload byte was not detected";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_NE(e.error().message.find("record 1"), std::string::npos)
            << e.error().message;
        EXPECT_NE(e.error().message.find("checksum"), std::string::npos)
            << e.error().message;
    }
    EXPECT_EQ(r.recordsRead(), 1u);
    setQuiet(false);
}

TEST(TraceFile, VersionOneFilesAreStillReadable)
{
    // Hand-build a v1 file (9-byte records, no CRC): old traces stay
    // valid interchange.
    TempFile tf;
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "wb");
        unsigned char header[kTraceHeaderBytes] = {'V', 'M', 'T', '1',
                                                   1,   0,   0,   0,
                                                   2,   0,   0,   0};
        std::fwrite(header, 1, sizeof(header), f);
        const unsigned char recs[2][kTraceRecordBytesV1] = {
            {4, 0, 0, 0, 96, 0, 0, 0, 1},
            {8, 0, 0, 0, 100, 0, 0, 0, 2},
        };
        std::fwrite(recs, 1, sizeof(recs), f);
        std::fclose(f);
    }
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.version(), 1u);
    EXPECT_EQ(r.recordCount(), 2u);
    TraceRecord rec;
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.pc, 4u);
    EXPECT_EQ(rec.daddr, 96u);
    EXPECT_EQ(rec.op, MemOp::Load);
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.op, MemOp::Store);
    EXPECT_FALSE(r.next(rec));
}

TEST(TraceFile, RecordSizeIsStable)
{
    // The on-disk format is an interchange contract; its sizes are
    // frozen by the header comment in trace_file.hh.
    EXPECT_EQ(kTraceRecordBytes, 13u);
    EXPECT_EQ(kTraceRecordBytesV1, 9u);
    EXPECT_EQ(kTraceHeaderBytes, 16u);
}


TEST(TraceFile, WriteAfterClosePanics)
{
    setQuiet(true);
    TempFile tf;
    TraceFileWriter w(tf.path());
    w.write(TraceRecord{4, 0, MemOp::None});
    w.close();
    EXPECT_THROW(w.write(TraceRecord{8, 0, MemOp::None}), PanicError);
    setQuiet(false);
}

TEST(TraceFile, CloseIsIdempotent)
{
    TempFile tf;
    TraceFileWriter w(tf.path());
    w.write(TraceRecord{4, 0, MemOp::None});
    w.close();
    EXPECT_NO_THROW(w.close());
    TraceFileReader r(tf.path());
    EXPECT_EQ(r.recordCount(), 1u);
}

TEST(TraceFile, UnwritablePathIsFatal)
{
    setQuiet(true);
    EXPECT_THROW(TraceFileWriter("/nonexistent_dir/trace.vmt"),
                 FatalError);
    setQuiet(false);
}

TEST(TraceFile, TrailingGarbageIsRejected)
{
    // A file larger than the header promises means the header and the
    // data disagree — refuse it rather than silently trusting either.
    setQuiet(true);
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        w.write(TraceRecord{4, 0, MemOp::None});
        w.close();
    }
    {
        std::FILE *f = std::fopen(tf.path().c_str(), "ab");
        // One whole extra record's worth of zero bytes.
        for (std::size_t i = 0; i < kTraceRecordBytes; ++i)
            std::fputc(0, f);
        std::fclose(f);
    }
    try {
        TraceFileReader r(tf.path());
        FAIL() << "oversized trace file was accepted";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        // The diagnostic must name the file and both byte counts.
        EXPECT_NE(e.error().message.find(tf.path()), std::string::npos);
        const std::string expectedBytes =
            std::to_string(kTraceHeaderBytes + kTraceRecordBytes);
        const std::string actualBytes =
            std::to_string(kTraceHeaderBytes + 2 * kTraceRecordBytes);
        EXPECT_NE(e.error().message.find(expectedBytes),
                  std::string::npos)
            << e.error().message;
        EXPECT_NE(e.error().message.find(actualBytes), std::string::npos)
            << e.error().message;
    }
    setQuiet(false);
}

TEST(TraceFile, TruncatedFileIsRejectedOnOpen)
{
    // A truncated copy (say, an interrupted download) is caught at
    // open, before any record is consumed.
    setQuiet(true);
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        for (int i = 0; i < 4; ++i)
            w.write(TraceRecord{static_cast<std::uint32_t>(4 * i), 0,
                                MemOp::None});
        w.close();
    }
    ASSERT_EQ(::truncate(tf.path().c_str(),
                         kTraceHeaderBytes + 2 * kTraceRecordBytes),
              0);
    try {
        TraceFileReader r(tf.path());
        FAIL() << "truncated trace file was accepted";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::Truncated);
        EXPECT_NE(e.error().message.find("truncated"),
                  std::string::npos);
        EXPECT_NE(e.error().message.find(tf.path()), std::string::npos);
    }
    setQuiet(false);
}

TEST(TraceFile, OpenFactoryReturnsErrorNotThrow)
{
    auto r = TraceFileReader::open("/nonexistent/vmsim.trace");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::IoError);
    // The path travels in the context field and so reaches toString().
    EXPECT_EQ(r.error().context, "/nonexistent/vmsim.trace");
    EXPECT_NE(r.error().toString().find("/nonexistent/vmsim.trace"),
              std::string::npos);

    auto w = TraceFileWriter::open("/nonexistent_dir/trace.vmt");
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error().code, ErrorCode::IoError);
}

TEST(TraceFile, OpenFactoryYieldsWorkingReader)
{
    TempFile tf;
    {
        auto w = TraceFileWriter::open(tf.path());
        ASSERT_TRUE(w.ok());
        w.value()->write(TraceRecord{4, 0, MemOp::Load});
        w.value()->close();
    }
    auto r = TraceFileReader::open(tf.path());
    ASSERT_TRUE(r.ok());
    TraceRecord rec;
    ASSERT_TRUE(r.value()->next(rec));
    EXPECT_EQ(rec.pc, 4u);
}

TEST(TraceFile, WriterDestructorWarnsOnFailedClose)
{
    // /dev/full accepts buffered writes but fails them at flush time
    // with ENOSPC, so the destructor's implicit close() fails after
    // every write() call has already "succeeded". The destructor must
    // not throw; it must warn with the path instead.
    if (::access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "/dev/full not available";
    testing::internal::CaptureStderr();
    {
        TraceFileWriter w("/dev/full");
        w.write(TraceRecord{4, 0, MemOp::None});
        // no close(): destructor takes the failing path.
    }
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("/dev/full"), std::string::npos) << err;
    EXPECT_NE(err.find("failed to close"), std::string::npos) << err;
}

TEST(TraceFile, WriterDestructorSilentOnCleanClose)
{
    TempFile tf;
    testing::internal::CaptureStderr();
    {
        TraceFileWriter w(tf.path());
        w.write(TraceRecord{4, 0, MemOp::None});
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// ------------------------------------------------------ PrefetchedTrace

constexpr std::size_t kChunk = PrefetchedTrace::kChunkRecords;

/**
 * Forwards a source, counting the records pulled from it into
 * @p pulled, and throws instead of pulling past record @p fail_at.
 */
class CountingSource : public TraceSource
{
  public:
    CountingSource(std::unique_ptr<TraceSource> inner,
                   std::atomic<Counter> &pulled,
                   Counter fail_at = ~Counter{0})
        : inner_(std::move(inner)), pulled_(pulled), failAt_(fail_at)
    {}

    bool next(TraceRecord &rec) override { return nextBatch(&rec, 1) == 1; }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        const Counter before = pulled_.load(std::memory_order_relaxed);
        if (before + n > failAt_)
            throw std::runtime_error("inner source failed");
        n = inner_->nextBatch(out, n);
        pulled_.store(before + n, std::memory_order_relaxed);
        return n;
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::atomic<Counter> &pulled_;
    Counter failAt_;
};

std::vector<TraceRecord>
bareRecords(const std::string &workload, std::uint64_t seed, std::size_t n)
{
    std::vector<TraceRecord> v(n);
    makeWorkload(workload, seed)->nextBatch(v.data(), n);
    return v;
}

/**
 * Drain @p src until it reports the end, cycling through the request
 * sizes and, call by call, through next(), nextBatch() and lendBatch().
 */
std::vector<TraceRecord>
drainMixed(TraceSource &src, const std::vector<std::size_t> &sizes)
{
    std::vector<TraceRecord> out;
    std::vector<TraceRecord> buf;
    for (std::size_t call = 0;; ++call) {
        const std::size_t n = sizes[call % sizes.size()];
        std::size_t got = 0;
        switch (call % 3) {
        case 0:
            for (TraceRecord rec; got < n && src.next(rec); ++got)
                out.push_back(rec);
            break;
        case 1:
            buf.resize(n);
            got = src.nextBatch(buf.data(), n);
            out.insert(out.end(), buf.begin(), buf.begin() + got);
            break;
        default: {
            const TraceRecord *p = src.lendBatch(n, got);
            EXPECT_NE(p, nullptr);
            EXPECT_LE(got, n);
            if (p)
                out.insert(out.end(), p, p + got);
        }
        }
        if (got == 0)
            return out;
    }
}

TEST(PrefetchedTrace, YieldsTheBareGeneratorsRecords)
{
    const std::vector<std::size_t> sizes = {1, 7, 1024, 4096, 5000};
    const std::size_t total = 6 * kChunk + 17 + 4096 + 5000;
    for (const char *workload : {"gcc", "vortex", "ijpeg"}) {
        for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{12345}}) {
            SCOPED_TRACE(std::string(workload) + " seed " +
                         std::to_string(seed));
            std::atomic<Counter> pulled{0};
            PrefetchedTrace src(std::make_unique<CountingSource>(
                                    makeWorkload(workload, seed), pulled),
                                total);
            EXPECT_EQ(drainMixed(src, sizes),
                      bareRecords(workload, seed, total));
            // The generator did exactly the work a direct consumer
            // would have asked of it.
            EXPECT_EQ(pulled.load(), total);
        }
    }
}

TEST(PrefetchedTrace, EndsAtItsRecordCount)
{
    for (std::size_t total : {std::size_t{0}, std::size_t{17},
                              kChunk, 3 * kChunk + 17}) {
        for (std::size_t req : {std::size_t{1}, std::size_t{7}, kChunk,
                                std::size_t{4096}, std::size_t{5000}}) {
            SCOPED_TRACE("total " + std::to_string(total) + " request " +
                         std::to_string(req));
            std::atomic<Counter> pulled{0};
            PrefetchedTrace src(std::make_unique<CountingSource>(
                                    makeWorkload("gcc", 1), pulled),
                                total);
            EXPECT_EQ(drainMixed(src, {req}), bareRecords("gcc", 1, total));
            EXPECT_EQ(pulled.load(), total);
            // The end is sticky on every access path.
            TraceRecord rec;
            std::size_t got = 1;
            EXPECT_FALSE(src.next(rec));
            EXPECT_EQ(src.nextBatch(&rec, 1), 0u);
            EXPECT_NE(src.lendBatch(req, got), nullptr);
            EXPECT_EQ(got, 0u);
        }
    }
}

TEST(PrefetchedTrace, EndsWhereAShortInnerSourceEnds)
{
    // A finite inner source: the records of a 100-record trace file.
    std::vector<TraceRecord> recs = bareRecords("vortex", 7, 100);
    TempFile tf;
    {
        TraceFileWriter w(tf.path());
        for (const TraceRecord &r : recs)
            w.write(r);
    }
    PrefetchedTrace src(std::make_unique<TraceFileReader>(tf.path()),
                        10 * kChunk);
    EXPECT_EQ(drainMixed(src, {7, 4096}), recs);
}

TEST(PrefetchedTrace, InnerExceptionReachesTheConsumer)
{
    // Fail inside the third chunk, and on the very first pull.
    for (Counter failAt : {Counter{2 * kChunk + 5}, Counter{0}}) {
        SCOPED_TRACE("fail at " + std::to_string(failAt));
        std::atomic<Counter> pulled{0};
        PrefetchedTrace src(std::make_unique<CountingSource>(
                                makeWorkload("ijpeg", 12345), pulled,
                                failAt),
                            10 * kChunk);
        // Every record of the chunks completed before the failure
        // arrives, then the inner source's own exception.
        const std::size_t good = failAt / kChunk * kChunk;
        std::vector<TraceRecord> out(good);
        EXPECT_EQ(src.nextBatch(out.data(), good), good);
        EXPECT_EQ(out, bareRecords("ijpeg", 12345, good));
        TraceRecord rec;
        EXPECT_THROW(src.next(rec), std::runtime_error);
        std::size_t got = 0;
        EXPECT_THROW(src.lendBatch(4096, got), std::runtime_error);
        EXPECT_THROW(src.nextBatch(&rec, 1), std::runtime_error);
    }
}

/** Wall time of destroying @p src, in seconds. */
double
destroySeconds(std::unique_ptr<PrefetchedTrace> src)
{
    const auto t0 = std::chrono::steady_clock::now();
    src.reset();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

TEST(PrefetchedTrace, DestructionRightAfterConstructionIsPrompt)
{
    for (int i = 0; i < 20; ++i) {
        auto src = std::make_unique<PrefetchedTrace>(makeWorkload("gcc", 1),
                                                     Counter{1} << 40);
        EXPECT_LT(destroySeconds(std::move(src)), 1.0);
    }
}

TEST(PrefetchedTrace, DestructionWithAFullRingIsPrompt)
{
    std::atomic<Counter> pulled{0};
    auto src = std::make_unique<PrefetchedTrace>(
        std::make_unique<CountingSource>(makeWorkload("vortex", 1), pulled),
        Counter{1} << 40);
    // Hold one lent chunk; the producer fills the rest and blocks.
    std::size_t got = 0;
    ASSERT_NE(src->lendBatch(10, got), nullptr);
    ASSERT_EQ(got, 10u);
    const Counter full = PrefetchedTrace::kChunks * kChunk;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (pulled.load() < full &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(pulled.load(), full);
    // The producer stays blocked: it never runs more than the ring
    // ahead of the consumer.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(pulled.load(), full);
    EXPECT_LT(destroySeconds(std::move(src)), 1.0);
}

TEST(PrefetchedTrace, AffordableWhileEveryRunCanHaveTwoThreads)
{
    EXPECT_FALSE(prefetchAffordable(1, 0)); // unknown thread count
    EXPECT_FALSE(prefetchAffordable(0, 0));
    EXPECT_FALSE(prefetchAffordable(1, 1));
    EXPECT_TRUE(prefetchAffordable(1, 2));
    EXPECT_TRUE(prefetchAffordable(2, 4));
    EXPECT_FALSE(prefetchAffordable(3, 4));
    EXPECT_FALSE(prefetchAffordable(2, 3));
    EXPECT_TRUE(prefetchAffordable(4, 8));
    EXPECT_FALSE(prefetchAffordable(5, 8));
    EXPECT_FALSE(prefetchAffordable(UINT_MAX, UINT_MAX));
    EXPECT_TRUE(prefetchAffordable(UINT_MAX / 2, UINT_MAX));
}

} // anonymous namespace
} // namespace vmsim
