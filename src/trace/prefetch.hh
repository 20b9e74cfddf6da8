/**
 * @file
 * PrefetchedTrace: runs a trace source one chunk ahead of its consumer
 * on a producer thread.
 *
 * A synthetic trace never depends on simulated state, so generating it
 * and simulating it need not take turns on one thread. The decorator
 * owns the inner source and one producer thread that fills a small
 * single-producer, single-consumer ring of fixed-size chunks; the
 * simulation loop borrows each chunk in place through lendBatch(). The
 * record sequence is exactly the inner source's: the producer is the
 * only caller of the inner source and pulls it in order.
 *
 * The inner source stays a single-threaded state machine: it is touched
 * by the producer thread alone, from construction until destruction.
 */

#ifndef VMSIM_TRACE_PREFETCH_HH
#define VMSIM_TRACE_PREFETCH_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>

#include "base/handoff.hh"
#include "base/types.hh"
#include "trace/trace.hh"

namespace vmsim
{

/**
 * A TraceSource that yields the first @p records records of an inner
 * source, generated ahead of the consumer on a producer thread. The
 * producer pulls exactly that many (fewer if the inner source ends), so
 * the inner source does no more work than a direct consumer would.
 *
 * Handoff: kChunks chunks of kChunkRecords records. Chunk counters are
 * published with release/acquire; a side that has to wait does so in
 * awaitChange(). A pointer from lendBatch() stays valid until the
 * next call on this source.
 *
 * An exception thrown by the inner source is rethrown to the consumer
 * once the records of every chunk completed before it are consumed.
 * Destruction at any point stops the producer within one chunk's
 * generation time and joins it.
 */
class PrefetchedTrace : public TraceSource
{
  public:
    static constexpr std::size_t kChunks = 4;
    static constexpr std::size_t kChunkRecords = 1024;

    PrefetchedTrace(std::unique_ptr<TraceSource> inner, Counter records);
    ~PrefetchedTrace() override;

    PrefetchedTrace(const PrefetchedTrace &) = delete;
    PrefetchedTrace &operator=(const PrefetchedTrace &) = delete;

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t n) override;
    const TraceRecord *lendBatch(std::size_t n, std::size_t &got) override;

  private:
    struct alignas(64) Chunk
    {
        std::array<TraceRecord, kChunkRecords> recs;
        std::size_t count = 0;
        bool last = false; ///< no chunk follows this one
    };

    /** Producer thread body. */
    void produce();

    /**
     * Consumer side: make the held chunk non-empty, releasing the
     * drained one and waiting for the next. False at the end of the
     * stream; rethrows the producer's exception if it ended in one.
     */
    bool fill();

    /** Unmaps the ring. */
    struct Unmap
    {
        void operator()(Chunk *ring) const;
    };

    std::unique_ptr<TraceSource> inner_; ///< producer-only
    Counter remaining_;                  ///< producer-only
    std::exception_ptr error_; ///< set before the last chunk publishes
    /** kChunks chunks, mapped apart from the malloc heap: a ring
     *  allocated and freed per run would otherwise fragment the heap
     *  and grow the process's resident peak. */
    std::unique_ptr<Chunk[], Unmap> ring_;

    /** Chunks published by the producer / released by the consumer;
     *  both count modulo 2^32. */
    alignas(64) std::atomic<std::uint32_t> published_{0};
    alignas(64) std::atomic<std::uint32_t> released_{0};
    std::atomic<bool> stop_{false};

    // Consumer-only state: chunks taken so far, and the held chunk.
    std::uint32_t taken_ = 0;
    bool holding_ = false;
    const TraceRecord *cur_ = nullptr;
    std::size_t pos_ = 0;
    std::size_t count_ = 0;
    bool last_ = false;

    std::thread producer_; ///< started last, joined first
};

} // namespace vmsim

#endif // VMSIM_TRACE_PREFETCH_HH
