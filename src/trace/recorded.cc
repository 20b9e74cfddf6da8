#include "trace/recorded.hh"

#include <algorithm>
#include <utility>

#include "base/crc.hh"
#include "base/logging.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{

RecordedTrace::RecordedTrace(Buffer records, std::string name)
    : records_(std::move(records)), name_(std::move(name))
{
    frame();
}

std::uint32_t
RecordedTrace::chunkCrc(std::size_t lo, std::size_t hi) const
{
    return crc32(records_.data() + lo, (hi - lo) * sizeof(TraceRecord));
}

std::size_t
RecordedTrace::findBadOp(std::size_t lo, std::size_t hi) const
{
    for (std::size_t i = lo; i < hi; ++i)
        if (static_cast<unsigned>(records_[i].op) > 2)
            return i;
    return hi;
}

void
RecordedTrace::frame()
{
    // One pass over the buffer: each chunk is op-checked and
    // checksummed while it is still in cache.
    const std::size_t n = records_.size();
    chunkCrcs_.reserve((n + kCrcChunkRecords - 1) / kCrcChunkRecords);
    for (std::size_t lo = 0; lo < n; lo += kCrcChunkRecords) {
        const std::size_t hi = std::min(lo + kCrcChunkRecords, n);
        if (const std::size_t i = findBadOp(lo, hi); i < hi)
            throw VmsimError(makeError(
                ErrorCode::ParseError, name_, "recorded trace '", name_,
                "' record ", i, ": op=",
                static_cast<unsigned>(records_[i].op)));
        chunkCrcs_.push_back(chunkCrc(lo, hi));
    }
}

Status
RecordedTrace::verifyIntegrity() const
{
    const std::size_t n = records_.size();
    for (std::size_t c = 0; c < chunkCrcs_.size(); ++c) {
        const std::size_t lo = c * kCrcChunkRecords;
        const std::size_t hi = std::min(lo + kCrcChunkRecords, n);
        if (chunkCrc(lo, hi) == chunkCrcs_[c])
            continue;
        // If the damage flipped an op out of range, name the exact
        // record; otherwise the chunk range is the best we can do.
        if (const std::size_t i = findBadOp(lo, hi); i < hi)
            return makeError(ErrorCode::ParseError, name_,
                             "recorded trace '", name_,
                             "' corrupted: record ", i, " has op=",
                             static_cast<unsigned>(records_[i].op));
        return makeError(ErrorCode::ParseError, name_,
                         "recorded trace '", name_,
                         "' corrupted: checksum mismatch in records [",
                         lo, ", ", hi, ")");
    }
    return Status();
}

RecordedTrace
RecordedTrace::record(TraceSource &source, Counter max_records,
                      std::string name)
{
    Buffer records;
    records.resize(max_records); // unwritten until nextBatch fills it
    std::size_t filled = 0;
    while (filled < max_records) {
        std::size_t got =
            source.nextBatch(records.data() + filled, max_records - filled);
        if (got == 0)
            break;
        filled += got;
    }
    records.resize(filled);
    return RecordedTrace(std::move(records), std::move(name));
}

ReplayCursor::ReplayCursor(std::shared_ptr<const RecordedTrace> trace)
    : trace_(std::move(trace))
{
    panicIf(!trace_, "ReplayCursor over a null RecordedTrace");
}

ReplayCursor::ReplayCursor(std::shared_ptr<const RecordedTrace> trace,
                           std::size_t start, bool wrap)
    : trace_(std::move(trace)), wrap_(wrap)
{
    panicIf(!trace_, "ReplayCursor over a null RecordedTrace");
    start_ = trace_->empty() ? 0 : start % trace_->size();
    pos_ = start_;
}

bool
ReplayCursor::next(TraceRecord &rec)
{
    if (pos_ >= trace_->size()) {
        if (!wrap_ || trace_->empty())
            return false;
        pos_ = 0;
    }
    rec = trace_->at(pos_++);
    return true;
}

std::size_t
ReplayCursor::nextBatch(TraceRecord *out, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n) {
        std::size_t avail = trace_->size() - pos_;
        if (avail == 0) {
            if (!wrap_ || trace_->empty())
                break;
            pos_ = 0;
            continue;
        }
        std::size_t take = std::min(n - filled, avail);
        const TraceRecord *src = trace_->records().data() + pos_;
        std::copy(src, src + take, out + filled);
        pos_ += take;
        filled += take;
    }
    return filled;
}

const TraceRecord *
ReplayCursor::lendBatch(std::size_t n, std::size_t &got)
{
    // The recording is immutable and outlives the cursor, so the
    // simulator can consume records in place — no staging copy. A
    // wrapping cursor lends only up to the end of the buffer (the
    // records must stay contiguous) and resumes at the front on the
    // next call, so callers see a short-but-nonempty batch, never a
    // spurious end-of-trace.
    if (wrap_ && pos_ >= trace_->size() && !trace_->empty())
        pos_ = 0;
    std::size_t avail = trace_->size() - pos_;
    got = std::min(n, avail);
    const TraceRecord *src = trace_->records().data() + pos_;
    pos_ += got;
    return src;
}

std::size_t
TraceCache::KeyHash::operator()(const Key &k) const
{
    // FNV-1a over the workload name, then splitmix-style mixing of the
    // integer fields.
    std::size_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : k.workload) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(k.seed);
    mix(k.records);
    return h;
}

TraceCache::TraceCache(std::size_t budget_bytes)
    : budget_(budget_bytes)
{}

std::shared_ptr<const RecordedTrace>
TraceCache::acquire(const std::string &workload, std::uint64_t seed,
                    Counter records)
{
    const Key key{workload, seed, records};
    const std::size_t bytes = records * sizeof(TraceRecord);
    std::promise<std::shared_ptr<const RecordedTrace>> promise;
    Future future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.hits;
            future = it->second;
        } else if (used_ + bytes > budget_) {
            // Would not fit: the caller regenerates directly. Not an
            // error — the cache only ever trades memory for speed.
            ++stats_.fallbacks;
            return nullptr;
        } else {
            // Charge the budget up front (the size is exact) and
            // publish the future so concurrent acquires of the same
            // key wait for this thread's recording instead of racing
            // their own.
            used_ += bytes;
            stats_.bytes = used_;
            ++stats_.misses;
            future = promise.get_future().share();
            entries_.emplace(key, future);
            builder = true;
        }
    }
    if (builder) {
        try {
            auto source = makeWorkload(workload, seed);
            auto recorded = std::make_shared<const RecordedTrace>(
                RecordedTrace::record(*source, records, source->name()));
            promise.set_value(std::move(recorded));
        } catch (...) {
            // Generation failed (e.g. an unknown workload name): fail
            // every waiter with the same exception and release the
            // slot so the bad key doesn't pin budget forever.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(key);
            used_ -= bytes;
            stats_.bytes = used_;
            throw;
        }
    }
    return future.get();
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace vmsim
