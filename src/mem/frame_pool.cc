#include "mem/frame_pool.hh"

#include "base/logging.hh"

namespace vmsim
{

const char *
reclaimPolicyName(ReclaimPolicy policy)
{
    switch (policy) {
      case ReclaimPolicy::Fifo:
        return "fifo";
      case ReclaimPolicy::Lru:
        return "lru";
      case ReclaimPolicy::Clock:
        return "clock";
    }
    panic("unknown ReclaimPolicy ", static_cast<unsigned>(policy));
}

Expected<ReclaimPolicy>
parseReclaimPolicy(const std::string &name)
{
    if (name == "fifo")
        return ReclaimPolicy::Fifo;
    if (name == "lru")
        return ReclaimPolicy::Lru;
    if (name == "clock")
        return ReclaimPolicy::Clock;
    return makeError(ErrorCode::InvalidArgument, "frame_pool",
                     "unknown reclaim policy '", name,
                     "' (expected fifo, lru, or clock)");
}

FramePool::FramePool(std::uint64_t capacity, ReclaimPolicy policy)
    : policy_(policy), capacity_(capacity)
{
    fatalIf(capacity < 2, "frame budget must be at least 2 frames, got ",
            capacity);
    fatalIf(capacity > kMaxCapacity, "frame budget of ", capacity,
            " frames exceeds the frame pool's bound of ", kMaxCapacity);
    slots_.reserve(capacity);
    // Capacity only shrinks, so the index never holds more keys.
    index_ = SlotIndex(static_cast<unsigned>(capacity));
}

bool
FramePool::touchIfResident(Vpn vpn)
{
    std::uint32_t slot = index_.find(vpn);
    if (slot == kNil)
        return false;
    switch (policy_) {
      case ReclaimPolicy::Fifo:
        break;
      case ReclaimPolicy::Lru:
        if (tail_ != slot) {
            unlink(slot);
            linkTail(slot);
        }
        break;
      case ReclaimPolicy::Clock:
        slots_[slot].referenced = true;
        break;
    }
    return true;
}

void
FramePool::touch(Vpn vpn)
{
    panicIf(!touchIfResident(vpn), "touch of non-resident page ", vpn);
}

void
FramePool::insert(Vpn vpn)
{
    panicIf(size_ >= capacity_, "insert into a full frame pool");
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.vpn = vpn;
    s.dirty = false;
    // A freshly-admitted page starts referenced: CLOCK gives every
    // page one full hand revolution before it becomes a candidate.
    s.referenced = true;
    linkTail(slot);
    index_.insertNew(vpn, slot);
    ++size_;
}

FramePool::Victim
FramePool::evict(Vpn exclude)
{
    std::uint32_t victim = kNil;
    if (policy_ == ReclaimPolicy::Clock) {
        // Sweep the ring from the hand: clear reference bits until an
        // unreferenced page (other than the protected one) turns up.
        // Terminates: the first full revolution clears every bit.
        if (hand_ == kNil)
            hand_ = head_;
        std::uint64_t sweeps = 0;
        while (victim == kNil) {
            panicIf(hand_ == kNil || sweeps > 2 * size_ + 2,
                    "CLOCK sweep found no evictable page");
            Slot &s = slots_[hand_];
            if (s.referenced) {
                s.referenced = false;
            } else if (s.vpn != exclude) {
                victim = hand_;
            }
            hand_ = s.next != kNil ? s.next : head_;
            ++sweeps;
        }
    } else {
        // FIFO and LRU both evict from the head; LRU's touch() keeps
        // the head the least-recently-used page.
        victim = head_;
        if (victim != kNil && slots_[victim].vpn == exclude)
            victim = slots_[victim].next;
        panicIf(victim == kNil, "no evictable page in the frame pool");
    }

    Victim out;
    out.vpn = slots_[victim].vpn;
    out.dirty = slots_[victim].dirty;
    unlink(victim);
    index_.erase(out.vpn);
    freeSlots_.push_back(victim);
    --size_;
    return out;
}

void
FramePool::shrinkCapacity()
{
    fatalIf(capacity_ <= 2,
            "frame budget exhausted by wired page-table pages: ",
            "raise --phys-mb or the physFrames budget");
    --capacity_;
}

void
FramePool::unlink(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    if (hand_ == slot)
        hand_ = s.next != kNil ? s.next : head_;
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        head_ = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        tail_ = s.prev;
    if (hand_ == slot)
        hand_ = kNil; // slot was the only element
    s.prev = s.next = kNil;
}

void
FramePool::linkTail(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.prev = tail_;
    s.next = kNil;
    if (tail_ != kNil)
        slots_[tail_].next = slot;
    else
        head_ = slot;
    tail_ = slot;
}

} // namespace vmsim
