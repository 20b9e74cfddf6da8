/**
 * @file
 * Seeded damage for crash-safe cell logs (core/shard.hh), shared by the
 * sweep-resume and shard tests. Each mutant is a whole damaged copy of
 * a committed log. A resume of it must reproduce the uninterrupted
 * run's CSV or refuse with a typed VmsimError: never crash, never
 * differ. A cut at every byte offset is checked through the owner's
 * reopen, the one step of a resume that reads the damaged bytes.
 */

#ifndef VMSIM_TESTS_LOG_MUTANTS_HH
#define VMSIM_TESTS_LOG_MUTANTS_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "base/crc.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "base/units.hh"
#include "common.hh"
#include "core/shard.hh"
#include "core/sweep.hh"

namespace vmsim
{
namespace mutants
{

/** One damaged copy of a log. */
struct Mutant
{
    std::string what; ///< names the damage in failure messages
    std::string bytes;
    bool mustRefuse = false; ///< damage no resume may repair
};

inline std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

inline void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

/**
 * @p log cut where a kill can leave it: at every record boundary and
 * in the middle of every record.
 */
inline std::vector<Mutant>
lineCuts(const std::string &log)
{
    std::vector<Mutant> out;
    for (std::size_t start = 0; start < log.size();) {
        const std::size_t end = log.find('\n', start) + 1;
        for (std::size_t k : {start, (start + end) / 2})
            out.push_back({"truncated to " + std::to_string(k) + " bytes",
                           log.substr(0, k)});
        start = end;
    }
    return out;
}

/**
 * Damage that survives the CRC frame or sits outside it: a payload
 * byte flipped and the line re-framed (so the mutant reaches the
 * decoder), a header naming @p foreignKind instead of @p ownKind or
 * carrying another version, owner or cell count, a cell record whose
 * per-core counters are missing or do not sum to its aggregates, and
 * garbage lines between records; all but the flips must be refused. A flip
 * sets a byte's high bit, so it never turns one counter value into
 * another valid one: under a valid CRC such a change is
 * indistinguishable from real data.
 */
inline std::vector<Mutant>
corruptions(const std::string &log, const std::string &ownKind,
            const std::string &foreignKind, std::uint64_t seed)
{
    std::vector<std::string> lines;
    std::vector<std::string> payloads;
    std::istringstream is(log);
    for (std::string line; std::getline(is, line);) {
        lines.push_back(line);
        EXPECT_EQ(crcUnframeLine(line, payloads.emplace_back()),
                  FrameCheck::Ok);
    }
    // @p lines with line @p i replaced by (or, inserting, given before
    // it) @p line, as file bytes.
    auto with = [&lines](std::size_t i, const std::string &line,
                         bool insert) {
        std::string bytes;
        for (std::size_t j = 0; j < lines.size(); ++j) {
            if (j == i)
                bytes += line + '\n';
            if (j != i || insert)
                bytes += lines[j] + '\n';
        }
        return bytes;
    };

    std::mt19937_64 rng(seed);
    std::vector<Mutant> out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (int k = 0; k < 16; ++k) {
            std::string flipped = payloads[i];
            const std::size_t at = rng() % flipped.size();
            flipped[at] = static_cast<char>(flipped[at] ^ 0x80);
            out.push_back({"line " + std::to_string(i) + " byte " +
                               std::to_string(at) + " flipped",
                           with(i, crcFrameLine(flipped), false)});
        }
    }

    std::string header = payloads[0];
    const std::string own = "\"kind\":\"" + ownKind + "\"";
    const std::size_t at = header.find(own);
    EXPECT_NE(at, std::string::npos);
    header.replace(at, own.size(), "\"kind\":\"" + foreignKind + "\"");
    out.push_back({"header kind " + foreignKind,
                   with(0, crcFrameLine(header), false), true});

    // Damage a random flip reaches only by luck, made certain: each
    // header field changed to another well-formed value, and the first
    // cell record's per-core block dropped (its key misspelt) or out of
    // step with the aggregates (one per-core count given a leading 1).
    // A framed record always carries per-core counters, so all of
    // these must be refused.
    auto edited = [&](std::size_t i, const std::string &key,
                      const std::string &what, auto edit) {
        std::string p = payloads[i];
        const std::size_t at = p.find(key);
        if (at == std::string::npos)
            return; // not a field this log kind carries
        edit(p, at + key.size());
        out.push_back({what, with(i, crcFrameLine(p), false), true});
    };
    auto bump = [](std::string &p, std::size_t at) {
        p[at] = p[at] == '9' ? '8' : static_cast<char>(p[at] + 1);
    };
    edited(0, "\"version\":", "header version changed", bump);
    edited(0, "\"cells\":", "header cell count changed", bump);
    edited(0, "\"owner\":\"", "header owner changed", bump);
    std::size_t rec = 1;
    while (rec + 1 < lines.size() &&
           payloads[rec].find("\"per_core\"") == std::string::npos)
        ++rec;
    EXPECT_LT(rec + 1, lines.size()) << "no interior cell record";
    edited(rec, "\"per_core\"", "per-core key misspelt",
           [](std::string &p, std::size_t at) { p[at - 2] = 'd'; });
    edited(rec, "\"per_core\":[[", "per-core sum off its aggregate",
           [](std::string &p, std::size_t at) {
               p.insert(p.find(',', at) + 1, "1");
           });

    for (std::size_t i = 1; i < lines.size(); ++i) {
        for (int k = 0; k < 3; ++k) {
            std::string garbage(1 + rng() % 64, ' ');
            for (char &c : garbage)
                c = static_cast<char>('!' + rng() % 94); // printable
            out.push_back({"garbage before line " + std::to_string(i) +
                               ": " + garbage,
                           with(i, garbage, true), true});
        }
    }
    return out;
}

/** Scratch directory that cleans up after itself. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/vmsim_mutants_XXXXXX";
        path_ = ::mkdtemp(tmpl);
    }
    ~ScratchDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** A grid of three cheap cells: a committed log is a header + 3 cells. */
inline SweepSpec
threeCellSpec()
{
    SimConfig base;
    base.l1 = CacheParams{4_KiB, 32};
    base.l2 = CacheParams{256_KiB, 64};
    SweepSpec spec;
    spec.base(base)
        .workloads({"ijpeg"})
        .instructions(2'000)
        .warmup(500)
        .seeds(3);
    return spec;
}

/**
 * Resume every mutant through @p resume (bytes -> CSV). Each must
 * reproduce @p cleanCsv or throw a ParseError/InvalidArgument
 * VmsimError (and a Mutant::mustRefuse one must throw); any other
 * exception escapes and fails the test. Returns how many were
 * refused.
 */
template <class Resume>
std::size_t
expectResumeOrTypedError(const std::vector<Mutant> &set,
                         const std::string &cleanCsv, Resume resume)
{
    std::size_t refused = 0;
    setQuiet(true); // torn tails warn on every resume
    for (const Mutant &m : set) {
        try {
            EXPECT_EQ(resume(m.bytes), cleanCsv) << m.what;
            EXPECT_FALSE(m.mustRefuse) << "resumed over " << m.what;
        } catch (const VmsimError &e) {
            ++refused;
            EXPECT_TRUE(e.code() == ErrorCode::ParseError ||
                        e.code() == ErrorCode::InvalidArgument)
                << m.what << ": " << e.what();
        }
    }
    setQuiet(false);
    return refused;
}

/**
 * threeCellSpec() committed twice in a scratch directory: once to a
 * sweep journal by SweepRunner, once to worker "w0"'s shard log (a
 * header and 3 commits), plus the ways to resume each from damaged
 * bytes.
 */
class CommittedLogs
{
  public:
    struct Log
    {
        ShardLog::Kind kind;
        std::string path;
        std::string ownKind;     ///< header kind it carries
        std::string foreignKind; ///< the other kind
        std::string bytes;       ///< as committed
    };

    CommittedLogs()
        : spec_(threeCellSpec()),
          runner_(spec_, obs_, RetryPolicy{}, faults_, 0, false, false,
                  nullptr)
    {
        const SweepResults clean = SweepRunner(1).run(spec_);
        cleanCsv_ = csvOf(clean);
        for (std::size_t i = 0; i < spec_.numCells(); ++i)
            cells_.push_back(clean.at(i).serialize().dump());

        const std::string journal = dir_.path() + "/journal.jsonl";
        SweepRunner(1).journal(journal).run(spec_);
        logs_.push_back({ShardLog::Kind::Journal, journal,
                         "vmsim-sweep-journal", "vmsim-shard-log",
                         readFile(journal)});

        {
            ShardLog log(shardDir(), "w0", spec_);
            for (std::size_t i = 0; i < spec_.numCells(); ++i)
                log.commit(i, runner_.run(i).results);
            logs_.push_back({ShardLog::Kind::Shard, log.path(),
                             "vmsim-shard-log", "vmsim-sweep-journal", ""});
        }
        logs_.back().bytes = readFile(logs_.back().path);
    }

    const std::vector<Log> &logs() const { return logs_; }
    const std::string &cleanCsv() const { return cleanCsv_; }

    /**
     * Put @p bytes in @p log's place and resume: SweepRunner --resume
     * for the journal; for the shard log, its owner's reopen, the
     * cells no commit covers, and the merge.
     */
    std::string
    resume(const Log &log, const std::string &bytes) const
    {
        writeFile(log.path, bytes);
        if (log.kind == ShardLog::Kind::Journal)
            return csvOf(SweepRunner(1)
                             .traceCache(0)
                             .journal(log.path)
                             .resume()
                             .run(spec_));
        ShardLog owner(shardDir(), "w0", spec_);
        const ShardScan scan = scanShardDir(shardDir(), spec_).orThrow();
        for (std::size_t i = 0; i < spec_.numCells(); ++i)
            if (scan.state[i] == ShardScan::Cell::Open)
                owner.commit(i, runner_.run(i).results);
        return csvOf(mergeShardDir(shardDir(), spec_).orThrow().results);
    }

    /**
     * Cut @p log at every byte offset and reopen it as its owner, the
     * step of a resume that reads the damaged bytes. The reopen must
     * leave exactly the whole records before the cut (terminating a
     * record whose newline was cut, rewriting a header the cut tore)
     * and recover exactly their commits, so the rest of the resume is
     * the one a kill on a record boundary leaves (lineCuts()).
     */
    void
    expectEveryCutReopensAtARecord(const Log &log) const
    {
        std::vector<std::size_t> ends; // offset past each line
        for (std::size_t nl = log.bytes.find('\n');
             nl != std::string::npos; nl = log.bytes.find('\n', nl + 1))
            ends.push_back(nl + 1);
        setQuiet(true);
        for (std::size_t k = 0; k < log.bytes.size(); ++k) {
            std::size_t lines = 0; // whole lines the reopen keeps
            while (lines < ends.size() && ends[lines] <= k + 1)
                ++lines;
            lines = std::max<std::size_t>(lines, 1); // header rewritten

            writeFile(log.path, log.bytes.substr(0, k));
            std::vector<std::pair<std::size_t, Results>> got;
            {
                ShardLog owner(log.path, log.kind, spec_, false,
                               log.kind == ShardLog::Kind::Shard ? "w0"
                                                                  : "");
                got = owner.takeRecovered();
            }
            EXPECT_EQ(readFile(log.path),
                      log.bytes.substr(0, ends[lines - 1]))
                << "cut at " << k;
            ASSERT_EQ(got.size(), lines - 1) << "cut at " << k;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].first, i) << "cut at " << k;
                EXPECT_EQ(got[i].second.serialize().dump(), cells_[i])
                    << "cut at " << k;
            }
        }
        setQuiet(false);
    }

  private:
    std::string shardDir() const { return dir_.path(); }

    const SweepSpec spec_;
    const ObsOptions obs_;
    const FaultSpec faults_;
    const CellRunner runner_;
    ScratchDir dir_;
    std::string cleanCsv_;
    std::vector<std::string> cells_; ///< serialized clean Results
    std::vector<Log> logs_;
};

} // namespace mutants
} // namespace vmsim

#endif // VMSIM_TESTS_LOG_MUTANTS_HH
