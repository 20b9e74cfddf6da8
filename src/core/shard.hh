/**
 * @file
 * Crash-safe cell logs, and sharded sweep execution on top of them.
 *
 * A ShardLog is an append-only CRC-framed JSONL log of completed sweep
 * cells (base/crc.hh framing, one write(2) + fsync per record through
 * base/fsio.hh AppendLog). Two kinds share the one format and the one
 * recovery walker:
 *
 *  - a sweep journal ("vmsim-sweep-journal", SweepRunner::journal()):
 *    one log, one owner, commit records only;
 *  - a shard log ("vmsim-shard-log"): one log per worker process in a
 *    shard directory, with lease and fail records besides commits.
 *
 * Recovery contract, for both kinds: after a kill, even mid-write, a
 * log is a valid prefix plus at most one detectably torn tail line.
 * The owner's reopen cuts a torn or checksum-failing final line at the
 * last record boundary (with a warning) and terminates a final record
 * whose newline never reached the disk. An undecodable line followed
 * by more records is mid-file corruption and a ParseError; a header of
 * the wrong kind or spec fingerprint is an InvalidArgument. Unframed
 * lines (version-1 journals, written before the frame existed) still
 * load.
 *
 * Sharded execution: N independent worker processes cooperatively
 * execute one SweepSpec grid through a shared directory, and the
 * merged result is byte-identical to a single-process run no matter
 * how many workers ran, crashed, or were restarted. Layout:
 *
 *   meta.json            spec fingerprint + cell count, written
 *                        atomically (base/fsio.hh) by the first worker
 *   shard-<owner>.jsonl  one shard log per worker
 *
 * Coordination is *advisory leases*, not locks: a worker claims a cell
 * by appending a lease record (owner + absolute expiry) to its own
 * log, runs the cell, then appends the commit record, the same payload
 * bytes a sweep journal holds. Every worker appends only to its own
 * log, so no two processes ever write one file; claiming races or
 * reclaims of a slow-but-alive worker's cell at worst duplicate work.
 * Cells are deterministic, so duplicate commits carry identical
 * payloads and the merge keeps the first.
 *
 * A SIGKILLed worker's torn tail is skipped by scanners and truncated
 * by the owner on restart, and its leases simply expire: any surviving
 * worker reclaims the cell after leaseSeconds of silence. See
 * docs/robustness.md.
 */

#ifndef VMSIM_CORE_SHARD_HH
#define VMSIM_CORE_SHARD_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hh"
#include "base/fsio.hh"
#include "core/sweep.hh"
#include "fault/fault.hh"

namespace vmsim
{

/** Configuration of one shard worker. */
struct ShardOptions
{
    std::string dir;   ///< shared shard directory (created if absent)
    std::string owner; ///< unique worker id; empty = "pid<pid>"

    /** Another worker's lease is reclaimable this long after it was
     *  granted. Must exceed the worst-case cell wall time. */
    double leaseSeconds = 30.0;

    /** Cell execution policy — same knobs as SweepRunner. */
    RetryPolicy retry;
    FaultSpec faults;
    std::size_t batchSize = 0;
    std::size_t traceCacheMb = 256;
    bool verify = false;

    /** Honor SIGINT/SIGTERM (base/signals.hh): cancel the in-flight
     *  cell, keep its lease unrecorded, and return early. */
    bool graceful = true;

    /** Test hook: crash (or tear, or throw) at a seeded append. */
    CrashPlan crash;
};

/**
 * One owner's append-only CRC-framed JSONL cell log (see the file
 * comment for the format and recovery contract). Opening resumes an
 * existing log; appends are durable once they return and safe to call
 * from concurrent threads.
 */
class ShardLog
{
  public:
    /** The header a log carries; opening refuses any other kind. */
    enum class Kind
    {
        Shard,   ///< "vmsim-shard-log": one worker of a shard directory
        Journal, ///< "vmsim-sweep-journal": a single-process sweep
    };

    /**
     * Open (or resume) the log at @p path. @p fresh discards whatever
     * the file held and starts over with a header. Throws VmsimError
     * on I/O failure, corruption, a wrong kind, a fingerprint mismatch
     * against @p spec, or header fields that do not fit the log
     * (version, a journal's cell count, a shard log's @p owner).
     */
    ShardLog(const std::string &path, Kind kind, const SweepSpec &spec,
             bool fresh = false, const std::string &owner = {},
             const CrashPlan &crash = {});

    /** Open (or resume) "<dir>/shard-<owner>.jsonl". */
    ShardLog(const std::string &dir, const std::string &owner,
             const SweepSpec &spec, const CrashPlan &crash = {});

    /** Claim @p cell until @p expiresMs (unix milliseconds). */
    void lease(std::size_t cell, std::uint64_t expiresMs);

    /** Record @p cell's Results; durable once this returns. */
    void commit(std::size_t cell, const Results &results);

    /** Record @p cell's terminal failure. */
    void fail(std::size_t cell, const Error &err);

    /**
     * Hand over the commit records the open recovered, in log order
     * (a cell committed twice appears twice). Empty after the first
     * call and for a fresh log.
     */
    std::vector<std::pair<std::size_t, Results>>
    takeRecovered()
    {
        return std::exchange(recovered_, {});
    }

    const std::string &path() const { return path_; }
    const std::string &owner() const { return owner_; }

  private:
    void append(const std::string &payload);

    AppendLog log_;
    std::string path_;
    std::string owner_;
    CrashPlan crash_;
    std::mutex mutex_; ///< serializes append() across sweep workers
    std::int64_t appends_ = 0;
    std::vector<std::pair<std::size_t, Results>> recovered_;
};

/** Per-cell state a scan of every shard log reconstructs. */
struct ShardScan
{
    enum class Cell : unsigned char
    {
        Open,   ///< no commit yet
        Ok,     ///< committed with Results
        Failed, ///< committed with a terminal failure
    };

    std::vector<Cell> state;               ///< per flat cell index
    std::vector<Results> results;          ///< valid where state == Ok
    std::vector<Error> errors;             ///< valid where Failed
    std::vector<std::uint64_t> leaseMs;    ///< latest expiry; 0 = none
    std::vector<std::string> leaseOwner;   ///< owner of that expiry

    /** Cells with a commit (Ok or Failed). */
    std::size_t done = 0;

    bool complete() const { return done == state.size(); }
};

/**
 * Read every "shard-*.jsonl" in @p dir (plus meta.json when present)
 * and fold the records into per-cell state. Torn final lines in any
 * log are skipped — only the log's owner truncates them — but
 * mid-file corruption, a malformed record, or a fingerprint mismatch
 * is an error: this is the integrity check the crash fuzzer asserts
 * never fires.
 */
Expected<ShardScan> scanShardDir(const std::string &dir,
                                 const SweepSpec &spec);

/** A merged sharded sweep. */
struct ShardMerge
{
    SweepResults results;
    std::size_t completed = 0; ///< cells with a commit record
    std::size_t missing = 0;   ///< cells no worker ever committed
};

/**
 * Merge @p dir into grid-ordered SweepResults. Duplicate commits for
 * a cell keep the first record seen (scan order is deterministic:
 * logs sorted by name, records in append order). Cells nothing
 * committed are marked failed with an Unknown "never executed" error
 * and counted in ShardMerge::missing — writeCsv() of a complete merge
 * is byte-identical to the single-process sweep's.
 */
Expected<ShardMerge> mergeShardDir(const std::string &dir,
                                   const SweepSpec &spec);

/**
 * Run one shard worker to completion: claim open cells lease-by-lease,
 * execute each through the shared CellRunner path, commit, and repeat
 * until every cell in the grid has a commit record (waiting out other
 * workers' live leases when necessary) or shutdown is requested.
 * Returns the number of cells this call committed. Throws VmsimError
 * on infrastructure errors (unwritable directory, corrupt logs,
 * fingerprint mismatch).
 */
std::size_t runShardWorker(const SweepSpec &spec,
                           const ShardOptions &opts);

} // namespace vmsim

#endif // VMSIM_CORE_SHARD_HH
