#include "mem/phys_mem.hh"

#include <utility>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace vmsim
{

PhysMem::PhysMem(std::uint64_t size_bytes, unsigned page_bits)
    : sizeBytes_(size_bytes), pageBits_(page_bits)
{
    fatalIf(page_bits < 6 || page_bits > 30, "unreasonable page size 2^",
            page_bits);
    fatalIf(size_bytes == 0 || !isPowerOf2(size_bytes),
            "physical memory size must be a nonzero power of two");
    fatalIf(size_bytes < pageSize(), "physical memory smaller than a page");
    numFrames_ = size_bytes >> page_bits;
}

Addr
PhysMem::reserveRegion(std::uint64_t bytes, std::uint64_t align)
{
    panicIf(nextFrame_ != 0 || map_.size() != 0,
            "reserveRegion after frame allocation began");
    fatalIf(bytes == 0, "cannot reserve an empty region");
    Addr base = alignUp(reserveCursor_, align ? align : 1);
    reserveCursor_ = base + bytes;
    // Frames begin after all reservations, page-aligned.
    Pfn first_frame = divCeil(reserveCursor_, pageSize());
    fatalIf((sizeBytes_ >> pageBits_) <= first_frame,
            "page-table reservations consumed all of physical memory (",
            reserveCursor_, " of ", sizeBytes_,
            " bytes reserved, no usable frames remain)");
    numFrames_ = (sizeBytes_ >> pageBits_) - first_frame;
    frameBase_ = first_frame;
    return base;
}

Pfn
PhysMem::allocFrame(Vpn vpn)
{
    if (map_.size() == map_.maxKeys()) {
        // Trace addresses are 32-bit and pages at least 2^10 bytes, so
        // user pages plus page-table pages stay far below the bound.
        panicIf(map_.maxKeys() >= SlotIndex::kMaxKeys,
                "PhysMem index full at ", map_.maxKeys(), " pages");
        SlotIndex grown(2 * map_.maxKeys());
        map_.forEach([&](std::uint64_t key, unsigned ordinal) {
            grown.insertNew(key, ordinal);
        });
        map_ = std::move(grown);
    }
    Pfn pfn;
    if (pool_ && !freeFrames_.empty()) {
        pfn = freeFrames_.back();
        freeFrames_.pop_back();
    } else {
        pfn = frameBase_ + nextFrame_++;
    }
    // Under a budget, an allocation for a page the pool is not
    // tracking is a wired page-table page: it holds its frame forever,
    // so the pool permanently loses one frame of capacity.
    if (pool_ && !pool_->resident(vpn)) {
        ++wired_;
        pool_->shrinkCapacity();
    }
    if (!overcommitted_ && map_.size() + 1 > numFrames_) {
        overcommitted_ = true;
        warn("physical memory overcommitted: ", map_.size() + 1,
             " pages touched but only ", numFrames_,
             " frames exist; continuing without eviction");
    }
    map_.insertNew(vpn, static_cast<unsigned>(pfn - frameBase_));
    return pfn;
}

Addr
PhysMem::frameAddrOf(Vpn vpn) const
{
    unsigned ordinal = map_.find(vpn);
    panicIf(ordinal == SlotIndex::kNone, "frameAddrOf of unmapped page ",
            vpn, " (use frameAddrAlloc for first-touch allocation)");
    return (frameBase_ + ordinal) << pageBits_;
}

void
PhysMem::setBudget(std::uint64_t frames, ReclaimPolicy policy)
{
    panicIf(pool_ != nullptr, "frame budget already configured");
    panicIf(map_.size() != 0, "setBudget after frame allocation began");
    pool_ = std::make_unique<FramePool>(frames, policy);
}

FramePool::Victim
PhysMem::evictPage(Vpn exclude)
{
    FramePool::Victim victim = pool_->evict(exclude);
    // Organizations whose tables concretely assigned the page a frame
    // (the hashed/inverted tables) recycle it; the others never mapped
    // the page here, so there is nothing to free.
    unsigned ordinal = map_.find(victim.vpn);
    if (ordinal != SlotIndex::kNone) {
        freeFrames_.push_back(frameBase_ + ordinal);
        map_.erase(victim.vpn);
    }
    return victim;
}

bool
PhysMem::auditFrames(std::string *why) const
{
    // Each frame ordinal handed out is held exactly once: by one
    // mapped page or by the free list.
    std::vector<bool> held(nextFrame_, false);
    std::uint64_t distinct = 0;
    auto hold = [&](Pfn ordinal) {
        if (ordinal < nextFrame_ && !held[ordinal]) {
            held[ordinal] = true;
            ++distinct;
        }
    };
    map_.forEach([&](std::uint64_t, unsigned ordinal) { hold(ordinal); });
    for (Pfn pfn : freeFrames_)
        hold(pfn - frameBase_);
    const std::uint64_t holders = map_.size() + freeFrames_.size();
    if (distinct == holders && holders == nextFrame_)
        return true;
    if (why)
        *why += std::to_string(map_.size()) + " mapped + " +
                std::to_string(freeFrames_.size()) + " free frames hold " +
                std::to_string(distinct) + " distinct of the " +
                std::to_string(nextFrame_) + " handed out";
    return false;
}

} // namespace vmsim
