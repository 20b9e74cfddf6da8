#include "trace/prefetch.hh"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>
#include <utility>

namespace vmsim
{

void
PrefetchedTrace::Unmap::operator()(Chunk *ring) const
{
    ::munmap(ring, sizeof(Chunk) * kChunks);
}

PrefetchedTrace::PrefetchedTrace(std::unique_ptr<TraceSource> inner,
                                 Counter records)
    : inner_(std::move(inner)), remaining_(records)
{
    void *p = ::mmap(nullptr, sizeof(Chunk) * kChunks,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    ring_.reset(static_cast<Chunk *>(p));
    std::uninitialized_default_construct_n(ring_.get(), kChunks);
    cur_ = ring_[0].recs.data();
    producer_ = std::thread(&PrefetchedTrace::produce, this);
}

PrefetchedTrace::~PrefetchedTrace()
{
    stop_.store(true, std::memory_order_release);
    // Any change to released_ wakes a producer blocked on a full ring;
    // it checks stop_ before touching another chunk.
    released_.fetch_add(1, std::memory_order_release);
    released_.notify_one();
    producer_.join();
}

void
PrefetchedTrace::produce()
{
    for (std::uint32_t made = 0;; ++made) {
        std::uint32_t rel = released_.load(std::memory_order_acquire);
        while (made - rel >= kChunks &&
               !stop_.load(std::memory_order_acquire))
            rel = awaitChange(released_, rel);
        if (stop_.load(std::memory_order_acquire))
            return;
        Chunk &c = ring_[made % kChunks];
        const auto want = static_cast<std::size_t>(
            std::min<Counter>(remaining_, kChunkRecords));
        try {
            c.count = want ? inner_->nextBatch(c.recs.data(), want) : 0;
        } catch (...) {
            error_ = std::current_exception();
            c.count = 0;
        }
        remaining_ -= c.count;
        c.last = error_ || c.count < want || remaining_ == 0;
        published_.store(made + 1, std::memory_order_release);
        published_.notify_one();
        if (c.last)
            return;
    }
}

bool
PrefetchedTrace::fill()
{
    while (pos_ == count_) {
        if (holding_) {
            if (last_) {
                if (error_)
                    std::rethrow_exception(error_);
                return false;
            }
            released_.store(taken_, std::memory_order_release);
            released_.notify_one();
            holding_ = false;
        }
        if (published_.load(std::memory_order_acquire) == taken_)
            awaitChange(published_, taken_);
        const Chunk &c = ring_[taken_ % kChunks];
        ++taken_;
        holding_ = true;
        cur_ = c.recs.data();
        pos_ = 0;
        count_ = c.count;
        last_ = c.last;
    }
    return true;
}

bool
PrefetchedTrace::next(TraceRecord &rec)
{
    if (!fill())
        return false;
    rec = cur_[pos_++];
    return true;
}

std::size_t
PrefetchedTrace::nextBatch(TraceRecord *out, std::size_t n)
{
    std::size_t done = 0;
    while (done < n && fill()) {
        const std::size_t take = std::min(n - done, count_ - pos_);
        std::copy(cur_ + pos_, cur_ + pos_ + take, out + done);
        pos_ += take;
        done += take;
    }
    return done;
}

const TraceRecord *
PrefetchedTrace::lendBatch(std::size_t n, std::size_t &got)
{
    // Lend within the held chunk only: it is not released to the
    // producer until the consumer comes back for more.
    got = 0;
    if (n == 0 || !fill())
        return cur_ + pos_;
    got = std::min(n, count_ - pos_);
    const TraceRecord *p = cur_ + pos_;
    pos_ += got;
    return p;
}

} // namespace vmsim
