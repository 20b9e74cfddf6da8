/**
 * @file
 * Recorded traces: an immutable in-memory instruction buffer, cheap
 * per-thread replay cursors over it, and a budgeted cache that shares
 * one recording across every sweep cell that would otherwise
 * regenerate the same deterministic workload.
 *
 * The paper's methodology is embarrassingly replayable: the same
 * (workload, seed) trace drives dozens of cache/organization cells
 * per figure. Recording the trace once and replaying the shared
 * buffer turns a multi-cell sweep from O(cells x trace-gen) into
 * O(trace-gen + cells x replay) — replay is a bulk copy, orders of
 * magnitude cheaper than running the synthetic generators' RNG per
 * record.
 */

#ifndef VMSIM_TRACE_RECORDED_HH
#define VMSIM_TRACE_RECORDED_HH

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/aligned.hh"
#include "base/error.hh"
#include "base/types.hh"
#include "trace/trace.hh"

namespace vmsim
{

/**
 * An immutable, fully in-memory trace. Safe to share across threads:
 * after construction nothing mutates, so any number of ReplayCursors
 * can read the same buffer concurrently.
 *
 * Construction *frames* the buffer: every record's op is validated
 * (an out-of-range op throws ParseError naming the exact record, the
 * same contract as TraceFileReader — corruption is caught where it
 * enters, not silently replayed into wrong results), and CRC32s are
 * computed over fixed-size record chunks. verifyIntegrity() recomputes
 * them on demand; the sweep's --check mode runs it after every cell so
 * a stray write through a lent batch pointer (ReplayCursor::lendBatch
 * hands out the shared buffer) is detected, not replayed into every
 * later cell that shares the recording.
 */
class RecordedTrace
{
  public:
    /** Records per CRC chunk (16 KiB of CRC per ~47 MiB of trace). */
    static constexpr std::size_t kCrcChunkRecords = 4096;

    /** Record storage: page-mapped, so a freed recording's pages go
     *  back to the OS instead of staying in the malloc heap. Buffer(n)
     *  and resize() leave the new records unwritten. */
    using Buffer = std::vector<TraceRecord, PageMappedAlloc<TraceRecord>>;

    /**
     * Wrap an already-materialized record buffer. Throws VmsimError
     * (ParseError) if any record carries an invalid op.
     */
    explicit RecordedTrace(Buffer records, std::string name = "recorded");

    /**
     * Pull up to @p max_records from @p source into a new recording
     * (fewer if the source runs dry). Uses the source's batch path.
     * Throws ParseError, with the exact record index, on an invalid op.
     */
    static RecordedTrace record(TraceSource &source, Counter max_records,
                                std::string name = "recorded");

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** Heap footprint of the record buffer. */
    std::size_t bytes() const { return records_.size() * sizeof(TraceRecord); }

    const TraceRecord &at(std::size_t i) const { return records_[i]; }
    const Buffer &records() const { return records_; }

    /**
     * Recompute the chunk CRCs and compare against the values framed
     * at construction. On mismatch, reports the narrowest record range
     * the chunking can name — and the exact record when the damage
     * also produced an invalid op.
     */
    Status verifyIntegrity() const;

    /** Display name of the recorded workload ("gcc-like", ...). */
    const std::string &name() const { return name_; }

  private:
    void frame();

    /** CRC32 of records [@p lo, @p hi). */
    std::uint32_t chunkCrc(std::size_t lo, std::size_t hi) const;

    /** First record in [@p lo, @p hi) with an invalid op, else @p hi. */
    std::size_t findBadOp(std::size_t lo, std::size_t hi) const;

    Buffer records_;
    std::string name_;
    std::vector<std::uint32_t> chunkCrcs_;
};

/**
 * A TraceSource that replays a shared RecordedTrace. Each cursor
 * carries only its read position, so every sweep cell (or simulated
 * core) gets its own cursor over the one shared buffer.
 *
 * A plain cursor starts at record 0 and ends (returns false / a short
 * batch) when the recording is exhausted. The offset form starts at
 * @p start and, when @p wrap is set, cycles through the buffer
 * indefinitely — the multicore scheduler uses one wrapping cursor per
 * core at staggered offsets to model independent address spaces from
 * one recording.
 */
class ReplayCursor : public TraceSource
{
  public:
    explicit ReplayCursor(std::shared_ptr<const RecordedTrace> trace);

    /** Start at record @p start (clamped); wrap around when @p wrap. */
    ReplayCursor(std::shared_ptr<const RecordedTrace> trace,
                 std::size_t start, bool wrap);

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;
    const TraceRecord *lendBatch(std::size_t n, std::size_t &got) override;
    bool lendsStableRecords() const override { return true; }

    /** Restart the replay from the cursor's start record. */
    void rewind() { pos_ = start_; }

    /** Current read position within the recording. */
    std::size_t position() const { return pos_; }

    const RecordedTrace &trace() const { return *trace_; }

    /** The shared recording this cursor replays. */
    const std::shared_ptr<const RecordedTrace> &shared() const
    {
        return trace_;
    }

  private:
    std::shared_ptr<const RecordedTrace> trace_;
    std::size_t start_ = 0;
    std::size_t pos_ = 0;
    bool wrap_ = false;
};

/** Hit/miss accounting for a TraceCache. */
struct TraceCacheStats
{
    std::size_t hits = 0;      ///< acquire() found an existing recording
    std::size_t misses = 0;    ///< acquire() generated a new recording
    std::size_t fallbacks = 0; ///< over budget: caller must regenerate
    std::size_t bytes = 0;     ///< total record bytes currently held
};

/**
 * A bounded, thread-safe cache of recorded synthetic workloads keyed
 * by (workload, seed, record count). The first acquire() of a key
 * generates and records the trace (other threads asking for the same
 * key block until it is ready); later acquires share the buffer.
 *
 * The byte budget is charged up front from the exact record count, so
 * a recording that would overflow the budget is never built: acquire()
 * returns nullptr and the caller transparently falls back to direct
 * generation. A sweep therefore never fails or changes results because
 * of the cache — it only gets faster when traces fit.
 */
class TraceCache
{
  public:
    /** @param budget_bytes total record bytes the cache may hold. */
    explicit TraceCache(std::size_t budget_bytes);

    /**
     * The recorded trace of makeWorkload(@p workload, @p seed)'s first
     * @p records instructions, generating it on first use; nullptr
     * when recording it would exceed the remaining budget.
     */
    std::shared_ptr<const RecordedTrace>
    acquire(const std::string &workload, std::uint64_t seed,
            Counter records);

    TraceCacheStats stats() const;

  private:
    struct Key
    {
        std::string workload;
        std::uint64_t seed;
        Counter records;

        bool
        operator==(const Key &o) const
        {
            return workload == o.workload && seed == o.seed &&
                   records == o.records;
        }
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    using Future = std::shared_future<std::shared_ptr<const RecordedTrace>>;

    std::size_t budget_;
    mutable std::mutex mutex_;
    std::size_t used_ = 0;
    std::unordered_map<Key, Future, KeyHash> entries_;
    TraceCacheStats stats_;
};

} // namespace vmsim

#endif // VMSIM_TRACE_RECORDED_HH
