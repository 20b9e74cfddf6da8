/**
 * @file
 * FramePool: the residency set behind a finite physical-frame budget
 * (docs/pressure.md). When a budget is configured the pool tracks
 * which virtual pages currently occupy a frame, picks eviction victims
 * under one of three classic reclaim policies, and remembers per-page
 * dirty bits so the eviction driver can charge writebacks:
 *
 *  - FIFO:  evict the page resident longest, regardless of use;
 *  - LRU:   evict the page touched least recently;
 *  - CLOCK: second-chance FIFO — a hand sweeps the resident ring,
 *           clearing reference bits until it finds an unreferenced
 *           page.
 *
 * The pool is pure bookkeeping: it holds no frame numbers and performs
 * no invalidation itself. PhysMem owns it, recycles the evicted
 * victim's frame (if one was concretely assigned) through a free list,
 * and VmSystem drives the eviction side effects (TLB and PTE
 * invalidation, shootdowns, fault-cycle charging).
 *
 * All operations are O(1) except a CLOCK eviction, whose hand sweep is
 * amortized O(1). Slots live in flat parallel arrays linked by index —
 * same layout discipline as the TLB (no per-node heap allocation, no
 * unordered_map). The vpn->slot index is a SlotIndex sized once for
 * the budget: capacity only shrinks, so the budget bounds the key
 * count and the index never grows, never rehashes and keeps its load
 * at or below 1/4. A store's markDirty() is one multiply and (almost
 * always) one cell, and a page touch is one probe (touchIfResident).
 */

#ifndef VMSIM_MEM_FRAME_POOL_HH
#define VMSIM_MEM_FRAME_POOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/error.hh"
#include "base/slot_index.hh"
#include "base/types.hh"

namespace vmsim
{

/** Victim-selection policy for a budgeted frame pool. */
enum class ReclaimPolicy : std::uint8_t
{
    Fifo = 0,
    Lru,
    Clock,
};

constexpr unsigned kNumReclaimPolicies = 3;

/** Stable lowercase identifier ("fifo", "lru", "clock"). */
const char *reclaimPolicyName(ReclaimPolicy policy);

/** Parse a policy name; InvalidArgument on anything unrecognized. */
Expected<ReclaimPolicy> parseReclaimPolicy(const std::string &name);

/** Residency set with pluggable replacement over a frame budget. */
class FramePool
{
  public:
    /** A page removed from the pool by evict(). */
    struct Victim
    {
        Vpn vpn = 0;
        bool dirty = false;
    };

    /**
     * Largest budget the pool can index (SlotIndex::kMaxKeys frames).
     * SimConfig::validate() refuses larger budgets.
     */
    static constexpr std::uint64_t kMaxCapacity = SlotIndex::kMaxKeys;

    /**
     * @param capacity frames available to pageable pages
     *        (2 <= capacity <= kMaxCapacity)
     * @param policy victim-selection policy
     */
    FramePool(std::uint64_t capacity, ReclaimPolicy policy);

    /** True if @p vpn currently occupies a frame. */
    bool resident(Vpn vpn) const { return index_.find(vpn) != kNil; }

    /**
     * A page touch in one probe: if @p vpn is resident, record the use
     * as touch() does and return true; otherwise change nothing and
     * return false.
     */
    bool touchIfResident(Vpn vpn);

    /**
     * Record a use of resident page @p vpn: LRU moves it to the
     * recently-used end, CLOCK sets its reference bit, FIFO ignores it.
     */
    void touch(Vpn vpn);

    /** Set @p vpn's dirty bit (no-op when not resident). */
    void
    markDirty(Vpn vpn)
    {
        std::uint32_t slot = index_.find(vpn);
        if (slot != kNil)
            slots_[slot].dirty = true;
    }

    /**
     * Admit non-resident @p vpn.
     * @pre resident(vpn) is false and size() < capacity()
     */
    void insert(Vpn vpn);

    /**
     * Remove and return the policy's victim, never @p exclude (the
     * page currently being touched must not lose its frame between
     * admission and TLB fill).
     * @pre at least one resident page other than @p exclude exists
     */
    Victim evict(Vpn exclude);

    /**
     * Give up one frame of capacity to a wired (non-pageable) page —
     * a page-table page allocated while the budget is active. Fatal
     * when wired pages consume the entire budget.
     */
    void shrinkCapacity();

    ReclaimPolicy policy() const { return policy_; }
    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t size() const { return size_; }

  private:
    /** No slot: list ends, an unset CLOCK hand, a missed probe. */
    static constexpr std::uint32_t kNil = SlotIndex::kNone;

    /** One resident page, linked into the recency/arrival ring. */
    struct Slot
    {
        Vpn vpn = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        bool dirty = false;
        bool referenced = false;
    };

    /** Unlink @p slot from the list (and move the CLOCK hand off it). */
    void unlink(std::uint32_t slot);

    /** Append @p slot at the tail (the recently-arrived/used end). */
    void linkTail(std::uint32_t slot);

    ReclaimPolicy policy_;
    std::uint64_t capacity_;
    std::uint64_t size_ = 0;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    SlotIndex index_;                ///< vpn -> slot
    std::uint32_t head_ = kNil;      ///< eviction end (oldest)
    std::uint32_t tail_ = kNil;      ///< insertion end (newest)
    std::uint32_t hand_ = kNil;      ///< CLOCK sweep position
};

} // namespace vmsim

#endif // VMSIM_MEM_FRAME_POOL_HH
