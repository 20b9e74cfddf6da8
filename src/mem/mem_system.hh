/**
 * @file
 * The two-level split cache hierarchy with per-access-class miss
 * attribution.
 *
 * The paper's cost accounting (Tables 2 and 3) hinges on *who* caused a
 * cache miss: misses on user references are MCPI, misses on PTE loads
 * and handler instruction fetches are VMCPI, split further by which
 * level of the page table was being walked. MemSystem therefore tags
 * every access with an AccessClass and keeps separate hit/miss counters
 * per class, while sharing one set of caches so that pollution effects
 * (handlers displacing user lines and vice versa) emerge naturally.
 */

#ifndef VMSIM_MEM_MEM_SYSTEM_HH
#define VMSIM_MEM_MEM_SYSTEM_HH

#include <array>
#include <cstdint>

#include "base/types.hh"
#include "mem/cache.hh"

namespace vmsim
{

/**
 * Who is performing a memory access. Maps onto the paper's Table 2/3
 * event taxonomy:
 *  - User:         application instruction fetches and loads/stores
 *                  (misses are MCPI: L1i/L1d/L2i/L2d-miss)
 *  - HandlerFetch: TLB/cache-miss handler instruction fetches
 *                  (misses are handler-L2 / handler-MEM)
 *  - PteUser:      user-level PTE loads (upte-L2 / upte-MEM)
 *  - PteKernel:    kernel-level PTE loads (kpte-L2 / kpte-MEM)
 *  - PteRoot:      root-level PTE loads and MACH "administrative" loads
 *                  (rpte-L2 / rpte-MEM)
 */
enum class AccessClass : std::uint8_t
{
    User = 0,
    HandlerFetch,
    PteUser,
    PteKernel,
    PteRoot,
};

constexpr unsigned kNumAccessClasses = 5;

/** Deepest level of the hierarchy an access had to reach. */
enum class MemLevel : std::uint8_t
{
    L1 = 0,  ///< hit in the level-1 cache
    L2,      ///< missed L1, hit in the level-2 cache
    Memory,  ///< missed both caches; went to main memory
};

/** Per-class access/miss counters for one side (inst or data). */
struct ClassCounters
{
    Counter accesses = 0;
    Counter l1Misses = 0;
    Counter l2Misses = 0;
};

/** All counters kept by a MemSystem. */
struct MemSystemStats
{
    std::array<ClassCounters, kNumAccessClasses> inst;
    std::array<ClassCounters, kNumAccessClasses> data;

    const ClassCounters &instOf(AccessClass c) const
    {
        return inst[static_cast<unsigned>(c)];
    }
    const ClassCounters &dataOf(AccessClass c) const
    {
        return data[static_cast<unsigned>(c)];
    }

    void reset() { *this = MemSystemStats{}; }
};

/**
 * Two-level, split (I/D at both levels) cache hierarchy.
 *
 * All four caches share the flat simulated address space; the hierarchy
 * is inclusive-by-construction in the trivial sense that a fill always
 * populates both levels (L2 is accessed only when L1 misses, and both
 * allocate on miss). Blocking behavior means cost is purely additive
 * per miss, which is exactly how the paper charges 20 / 500 cycles.
 * Cache-line aligned: a split back end's worker thread may write it
 * while the simulation thread writes the objects beside it.
 */
class alignas(64) MemSystem
{
  public:
    /**
     * @param l1 geometry of each L1 side (the paper's "per side" size)
     * @param l2 geometry of each L2 side
     * @param seed seed for replacement randomness (associative configs)
     * @param unified_l2 if true, instructions and data share a single
     *        L2 of twice the per-side size (equal total capacity) —
     *        the organization the paper declines to simulate but
     *        notes "would give better performance"; exposed for the
     *        unified-L2 ablation
     */
    MemSystem(const CacheParams &l1, const CacheParams &l2,
              std::uint64_t seed = 1, bool unified_l2 = false);

    /**
     * Fetch one instruction word at @p pc through the I-side hierarchy.
     * @return deepest level reached.
     */
    MemLevel
    instFetch(Addr pc, AccessClass cls)
    {
        return accessLine(l1i_, l2i_, pc,
                          stats_.inst[static_cast<unsigned>(cls)]);
    }

    /**
     * Access @p size bytes at @p addr through the D-side hierarchy.
     * Accesses spanning multiple lines touch each line; the returned
     * level is the deepest any line reached. Loads and stores are
     * identical for tag state (write-allocate, write-through); the
     * @p store flag only routes statistics.
     */
    MemLevel
    dataAccess(Addr addr, unsigned size, bool store, AccessClass cls)
    {
        // Added, not branched on: stores are ~35% of data accesses
        // and randomly placed, so a branch here mispredicts often.
        stores_ += store;
        auto &ctrs = stats_.data[static_cast<unsigned>(cls)];
        const Addr last = addr + (size ? size - 1 : 0);
        if (l1d_.lineAddr(addr) == l1d_.lineAddr(last))
            return accessLine(l1d_, *l2dPtr_, addr, ctrs);
        return dataSpan(addr, last, ctrs);
    }

    /** Invalidate all four caches (cold start). */
    void invalidateAll();

    const MemSystemStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    Counter storeCount() const { return stores_; }

    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2i() const { return l2i_; }
    const Cache &l2d() const { return *l2dPtr_; }

    bool unifiedL2() const { return unifiedL2_; }

  private:
    static MemLevel
    accessLine(Cache &l1, Cache &l2, Addr addr, ClassCounters &ctrs)
    {
        ++ctrs.accesses;
        if (l1.access(addr))
            return MemLevel::L1;
        ++ctrs.l1Misses;
        if (l2.access(addr))
            return MemLevel::L2;
        ++ctrs.l2Misses;
        return MemLevel::Memory;
    }

    /** dataAccess() of bytes [@p addr, @p last] spanning lines. */
    MemLevel dataSpan(Addr addr, Addr last, ClassCounters &ctrs);

    /** Double the capacity of @p p (for the unified-L2 geometry). */
    static CacheParams doubled(CacheParams p, bool enable);

    bool unifiedL2_;
    Cache l1i_;
    Cache l1d_;
    Cache l2i_;   ///< unified: the single shared L2
    Cache l2dOwn_; ///< split-mode D-side L2 (unused when unified)
    Cache *l2dPtr_; ///< &l2dOwn_ or &l2i_ when unified
    MemSystemStats stats_;
    Counter stores_ = 0;
};

} // namespace vmsim

#endif // VMSIM_MEM_MEM_SYSTEM_HH
