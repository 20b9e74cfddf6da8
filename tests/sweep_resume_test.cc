/**
 * @file
 * Tests for sweep checkpoint/resume: the JSONL journal, the spec
 * fingerprint guard, tolerance of kill-truncated journals, and the
 * headline guarantee — a killed-and-resumed sweep produces a CSV
 * byte-identical to an uninterrupted run's.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/crc.hh"
#include "base/error.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "common.hh"
#include "core/sweep.hh"
#include "log_mutants.hh"

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
        char tmpl[] = "/tmp/vmsim_journal_XXXXXX";
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

SweepSpec
smallSpec()
{
    SimConfig base;
    base.l1 = CacheParams{4_KiB, 32};
    base.l2 = CacheParams{1_MiB, 64};
    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Ultrix, SystemKind::Intel})
        .workloads({"gcc"})
        .l1Sizes({4_KiB, 16_KiB})
        .seeds(2)
        .instructions(20'000)
        .warmup(2'000);
    return spec;
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &l : lines)
        out << l << '\n';
}

TEST(SpecFingerprint, StableAndSpecSensitive)
{
    SweepSpec a = smallSpec();
    SweepSpec b = smallSpec();
    EXPECT_EQ(specFingerprint(a), specFingerprint(b));

    b.instructions(30'000);
    EXPECT_NE(specFingerprint(a), specFingerprint(b));

    SweepSpec c = smallSpec();
    c.l1Sizes({4_KiB, 32_KiB});
    EXPECT_NE(specFingerprint(a), specFingerprint(c));
}

TEST(SweepResume, JournalWrittenAndFullResumeSkipsEveryCell)
{
    SweepSpec spec = smallSpec();
    TempFile journal;

    SweepResults first =
        SweepRunner(2).journal(journal.path()).run(spec);
    ASSERT_TRUE(first.allOk());
    std::string csv = csvOf(first);

    // Header + one line per completed cell.
    auto lines = readLines(journal.path());
    ASSERT_EQ(lines.size(), 1 + spec.numCells());
    EXPECT_NE(lines[0].find("vmsim-sweep-journal"), std::string::npos);

    SweepResults resumed =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    EXPECT_EQ(csvOf(resumed), csv);
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_TRUE(resumed.outcomeAt(i).fromJournal) << "cell " << i;
        EXPECT_EQ(resumed.outcomeAt(i).attempts, 0u) << "cell " << i;
    }
}

TEST(SweepResume, KilledSweepResumesByteIdentical)
{
    SweepSpec spec = smallSpec();

    // The reference artifact: one uninterrupted run.
    TempFile ref;
    std::string cleanCsv =
        csvOf(SweepRunner(2).journal(ref.path()).run(spec));

    // Simulate a sweep killed partway: keep the journal header and the
    // first five completed cells, drop the rest.
    TempFile journal;
    SweepRunner(2).journal(journal.path()).run(spec);
    auto lines = readLines(journal.path());
    ASSERT_GT(lines.size(), 6u);
    lines.resize(6); // header + 5 cells
    writeLines(journal.path(), lines);

    SweepResults resumed =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(csvOf(resumed), cleanCsv);

    std::size_t fromJournal = 0;
    for (std::size_t i = 0; i < resumed.size(); ++i)
        if (resumed.outcomeAt(i).fromJournal)
            ++fromJournal;
    EXPECT_EQ(fromJournal, 5u);

    // The journal was topped up: a second resume loads every cell.
    SweepResults again =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    EXPECT_EQ(csvOf(again), cleanCsv);
    for (std::size_t i = 0; i < again.size(); ++i)
        EXPECT_TRUE(again.outcomeAt(i).fromJournal) << "cell " << i;
}

TEST(SweepResume, ToleratesAKillMidLine)
{
    SweepSpec spec = smallSpec();
    std::string cleanCsv = csvOf(SweepRunner(2).run(spec));

    TempFile journal;
    SweepRunner(2).journal(journal.path()).run(spec);

    // A kill mid-write leaves a partial trailing line with no newline.
    auto lines = readLines(journal.path());
    ASSERT_GT(lines.size(), 4u);
    std::string partial = lines[4].substr(0, lines[4].size() / 2);
    lines.resize(4); // header + 3 whole cells
    writeLines(journal.path(), lines);
    {
        std::ofstream out(journal.path(), std::ios::app);
        out << partial; // no '\n'
    }

    SweepResults resumed =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(csvOf(resumed), cleanCsv);

    // Every torn tail a kill can leave, in both log kinds: each byte
    // offset reopens at a record boundary, and a cut on or between
    // boundaries resumes to the uninterrupted CSV, never refused.
    const mutants::CommittedLogs committed;
    for (const mutants::CommittedLogs::Log &log : committed.logs()) {
        committed.expectEveryCutReopensAtARecord(log);
        EXPECT_EQ(mutants::expectResumeOrTypedError(
                      mutants::lineCuts(log.bytes), committed.cleanCsv(),
                      [&](const std::string &bytes) {
                          return committed.resume(log, bytes);
                      }),
                  0u)
            << log.ownKind;
    }
}

TEST(SweepResume, HandWrittenVersion1And2JournalsResume)
{
    // Journals in both formats earlier releases wrote, built by hand:
    // version 1 with unframed lines, version 2 with every line
    // CRC-framed. Both must still resume.
    SweepSpec spec = smallSpec();
    SweepResults clean = SweepRunner(2).run(spec);
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(specFingerprint(spec)));
    for (int version : {1, 2}) {
        auto frame = [version](const std::string &payload) {
            return version == 1 ? payload : crcFrameLine(payload);
        };
        std::vector<std::string> lines = {frame(
            "{\"kind\":\"vmsim-sweep-journal\",\"version\":" +
            std::to_string(version) + ",\"fingerprint\":\"" + fp +
            "\",\"cells\":" + std::to_string(spec.numCells()) + "}")};
        for (std::size_t cell : {1u, 4u, 6u})
            lines.push_back(frame("{\"cell\":" + std::to_string(cell) +
                                  ",\"results\":" +
                                  clean.at(cell).serialize().dump() + "}"));
        TempFile journal;
        writeLines(journal.path(), lines);

        SweepResults resumed =
            SweepRunner(2).journal(journal.path()).resume().run(spec);
        ASSERT_TRUE(resumed.allOk()) << "version " << version;
        EXPECT_EQ(csvOf(resumed), csvOf(clean)) << "version " << version;
        for (std::size_t i = 0; i < resumed.size(); ++i)
            EXPECT_EQ(resumed.outcomeAt(i).fromJournal,
                      i == 1 || i == 4 || i == 6)
                << "version " << version << " cell " << i;
        // New records append after the old ones, CRC-framed.
        auto after = readLines(journal.path());
        ASSERT_EQ(after.size(), 1 + spec.numCells());
        EXPECT_EQ(after[1], lines[1]);
        EXPECT_EQ(after.back().rfind("{\"crc\":", 0), 0u);
    }
}

TEST(SweepResume, MidFileCorruptionIsRejected)
{
    // A bad line *followed by more records* is real corruption, not a
    // torn tail — resume must refuse rather than silently re-run the
    // damaged interior cells.
    SweepSpec spec = smallSpec();
    TempFile journal;
    SweepRunner(2).journal(journal.path()).run(spec);
    auto lines = readLines(journal.path());
    ASSERT_GT(lines.size(), 3u);
    lines[2] = "{\"cell\": not json";
    writeLines(journal.path(), lines);

    setQuiet(true);
    try {
        SweepRunner(2).journal(journal.path()).resume().run(spec);
        FAIL() << "mid-file journal corruption was accepted";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::ParseError);
        EXPECT_NE(e.error().message.find("corrupt mid-file"),
                  std::string::npos);
    }
    setQuiet(false);
}

TEST(SweepResume, CorruptTailRecordIsTruncatedWithWarning)
{
    // Flip one payload byte in the *final* record: the CRC frame makes
    // the damage detectable, and because nothing follows it, resume
    // truncates to the last good record and re-runs just that cell.
    SweepSpec spec = smallSpec();
    std::string cleanCsv = csvOf(SweepRunner(2).run(spec));

    TempFile journal;
    SweepRunner(2).journal(journal.path()).run(spec);
    auto lines = readLines(journal.path());
    ASSERT_GT(lines.size(), 2u);
    std::string &last = lines.back();
    ASSERT_NE(last.find("\"crc\""), std::string::npos);
    last[last.size() / 2] ^= 0x01;
    writeLines(journal.path(), lines);

    SweepResults resumed =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    ASSERT_TRUE(resumed.allOk());
    EXPECT_EQ(csvOf(resumed), cleanCsv);

    std::size_t fromJournal = 0;
    for (std::size_t i = 0; i < resumed.size(); ++i)
        if (resumed.outcomeAt(i).fromJournal)
            ++fromJournal;
    EXPECT_EQ(fromJournal, spec.numCells() - 1);
}

TEST(SweepResume, FingerprintMismatchIsRejected)
{
    TempFile journal;
    SweepSpec spec = smallSpec();
    SweepRunner(1).journal(journal.path()).run(spec);

    SweepSpec other = smallSpec();
    other.instructions(30'000);
    setQuiet(true);
    try {
        SweepRunner(1).journal(journal.path()).resume().run(other);
        FAIL() << "resume against a different spec was accepted";
    } catch (const VmsimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
        EXPECT_NE(e.error().message.find("fingerprint"),
                  std::string::npos);
    }
    setQuiet(false);
}

TEST(SweepResume, MissingJournalMeansFreshRun)
{
    SweepSpec spec = smallSpec();
    std::string cleanCsv = csvOf(SweepRunner(2).run(spec));

    TempFile journal;
    std::remove(journal.path().c_str());
    SweepResults res =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    ASSERT_TRUE(res.allOk());
    EXPECT_EQ(csvOf(res), cleanCsv);
    for (std::size_t i = 0; i < res.size(); ++i)
        EXPECT_FALSE(res.outcomeAt(i).fromJournal);
}

TEST(SweepResume, FailedCellsAreNotJournaledAndRetryOnResume)
{
    SweepSpec spec = smallSpec();
    TempFile journal;

    setQuiet(true);
    FaultSpec faults;
    faults.corrupt = 1.0;
    SweepResults faulty = SweepRunner(2)
                              .injectFaults(faults)
                              .journal(journal.path())
                              .run(spec);
    setQuiet(false);
    EXPECT_EQ(faulty.failedCount(), spec.numCells());

    // Only the header line: no failed cell was checkpointed.
    EXPECT_EQ(readLines(journal.path()).size(), 1u);

    // Resuming without injection re-runs everything and succeeds.
    SweepResults retried =
        SweepRunner(2).journal(journal.path()).resume().run(spec);
    EXPECT_TRUE(retried.allOk());
    EXPECT_EQ(csvOf(retried), csvOf(SweepRunner(2).run(spec)));
}

} // anonymous namespace
} // namespace vmsim
