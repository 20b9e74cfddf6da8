/**
 * @file
 * Physical memory model: fixed-size frame pool with first-touch
 * virtual-to-physical frame assignment, plus reservation of physical
 * regions for page tables.
 *
 * The paper fixes physical memory at 8 MB for the PA-RISC simulation
 * (the inverted table's size derives from it) and otherwise assumes
 * memory is "large enough to hold all pages used by an application".
 * By default vmsim mirrors that: frames are assigned bump-style on
 * first touch and held forever, and exceeding the nominal frame count
 * merely produces a one-time warning (the caches are virtual, so frame
 * numbers carry no behavioral weight beyond table sizing).
 *
 * setBudget() departs from the paper's assumption: it caps the number
 * of simultaneously-resident pageable pages behind a FramePool with a
 * pluggable reclaim policy, so exceeding the budget evicts a victim
 * and recycles its frame through a free list (docs/pressure.md). With
 * no budget configured every code path below is byte-identical to the
 * historical bump-only behavior.
 */

#ifndef VMSIM_MEM_PHYS_MEM_HH
#define VMSIM_MEM_PHYS_MEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/slot_index.hh"
#include "base/types.hh"
#include "mem/frame_pool.hh"

namespace vmsim
{

/** Frame pool with first-touch allocation and table-region reservation. */
class PhysMem
{
  public:
    /**
     * @param size_bytes nominal physical memory size (paper: 8 MB)
     * @param page_bits  log2 of the page size (paper: 12, i.e. 4 KB)
     */
    PhysMem(std::uint64_t size_bytes, unsigned page_bits);

    /**
     * Reserve a physically-contiguous region (for a page table) and
     * return its base physical address. Regions are carved from the
     * bottom of physical memory, ahead of any frame allocation; a
     * reservation that consumes every frame is a fatal configuration
     * error (frameOf would otherwise assign frames past sizeBytes()).
     * @pre no frames allocated yet
     */
    Addr reserveRegion(std::uint64_t bytes, std::uint64_t align);

    /**
     * Physical frame backing virtual page @p vpn, allocated on first
     * touch. Deterministic: repeat calls return the same frame (until
     * an eviction under a frame budget unmaps the page; the next call
     * then assigns a recycled frame). The hit path is one inline probe.
     */
    Pfn
    frameOf(Vpn vpn)
    {
        unsigned ordinal = map_.find(vpn);
        return ordinal != SlotIndex::kNone ? frameBase_ + ordinal
                                           : allocFrame(vpn);
    }

    /** True if @p vpn has been touched (has a frame). */
    bool isMapped(Vpn vpn) const { return map_.find(vpn) != SlotIndex::kNone; }

    /**
     * Physical base address of the frame backing @p vpn. Read-only
     * query: panics if @p vpn has no frame — callers that mean to
     * allocate must say so via frameAddrAlloc().
     */
    Addr frameAddrOf(Vpn vpn) const;

    /** frameAddrOf() with explicit first-touch allocation. */
    Addr frameAddrAlloc(Vpn vpn) { return frameOf(vpn) << pageBits_; }

    std::uint64_t pageSize() const { return std::uint64_t{1} << pageBits_; }
    unsigned pageBits() const { return pageBits_; }
    std::uint64_t sizeBytes() const { return sizeBytes_; }

    /** Total frames in the nominal pool (after reservations). */
    std::uint64_t numFrames() const { return numFrames_; }

    /** Frames handed out so far. */
    std::uint64_t framesUsed() const { return map_.size(); }

    /** True once more frames were requested than nominally exist. */
    bool overcommitted() const { return overcommitted_; }

    /** @name Memory-pressure budget (docs/pressure.md)
     *
     * setBudget() caps simultaneously-resident pageable pages at
     * @p frames behind a FramePool. VmSystem drives the pool:
     * touchResidentPage() (then admitPage() on a miss) on every page
     * touch, evictPage() when the budget is exhausted, markPageDirty()
     * on stores. Pages allocated through frameOf() while *not* pool
     * resident (page-table pages) are wired: each one permanently
     * shrinks the pool's capacity. @{ */

    /** Enable the budget. Call once, before any page is touched. */
    void setBudget(std::uint64_t frames, ReclaimPolicy policy);

    /** True while a frame budget is active. */
    bool budgeted() const { return pool_ != nullptr; }

    /**
     * If pageable page @p vpn holds a frame, record the reuse (policy
     * bookkeeping) and return true; otherwise return false. One pool
     * probe either way.
     */
    bool touchResidentPage(Vpn vpn) { return pool_->touchIfResident(vpn); }

    /** True if admitting one more page requires an eviction first. */
    bool mustEvictForAdmit() const
    {
        return pool_->size() + 1 > pool_->capacity();
    }

    /** True if wired growth pushed residency over the budget. */
    bool overBudget() const { return pool_->size() > pool_->capacity(); }

    /**
     * Evict the policy's victim (never @p exclude): the page leaves
     * the pool and, if it was concretely assigned a frame, that frame
     * joins the free list for reuse by the next frameOf().
     */
    FramePool::Victim evictPage(Vpn exclude);

    /** Admit non-resident @p vpn under the budget. */
    void admitPage(Vpn vpn) { pool_->insert(vpn); }

    /** Set @p vpn's dirty bit (no-op when not resident). */
    void markPageDirty(Vpn vpn) { pool_->markDirty(vpn); }

    /** The pool, or nullptr when no budget is configured. */
    const FramePool *framePool() const { return pool_.get(); }

    /** Frames pinned by wired (page-table) pages under the budget. */
    std::uint64_t wiredFrames() const { return wired_; }

    /**
     * Audit the frame assignment: every mapped page holds a distinct
     * frame, no free-list frame is also mapped, and mapped plus free
     * frames equal the frames handed out (checkLivePhysMem).
     * @return true if all hold; on failure appends a reason to @p why
     * if non-null.
     */
    bool auditFrames(std::string *why = nullptr) const;

    /** @} */

  private:
    /** frameOf's miss path: assign @p vpn a frame and index it. */
    Pfn allocFrame(Vpn vpn);

    std::uint64_t sizeBytes_;
    unsigned pageBits_;
    Addr reserveCursor_ = 0;    ///< next free byte for reserveRegion
    Pfn frameBase_ = 0;         ///< first frame past reserved regions
    Pfn nextFrame_ = 0;         ///< next frame for first-touch alloc
    std::uint64_t numFrames_ = 0;
    bool overcommitted_ = false;
    /**
     * First-touch vpn -> frame ordinal (pfn - frameBase_). Starts at
     * one key (4 cells, one 64-byte line) and doubles when a miss
     * finds it full. Seven of the nine organizations map few or no
     * pages, and a 4 KiB first block per cell raised a sweep's peak RSS.
     */
    SlotIndex map_{1};
    std::unique_ptr<FramePool> pool_; ///< null = unlimited (default)
    std::vector<Pfn> freeFrames_;     ///< frames recycled by evictions
    std::uint64_t wired_ = 0;         ///< budget-time non-pool allocs
};

} // namespace vmsim

#endif // VMSIM_MEM_PHYS_MEM_HH
