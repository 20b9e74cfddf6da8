/**
 * @file
 * The BSD/Intel (IA-32 style) page table: a two-tiered hierarchical
 * table walked *top-down* in hardware (paper Figure 3).
 *
 * A 4 KB root table (page directory) of 1024 4-byte entries maps 4 MB
 * segments of the user space; each segment is mapped by a 4 KB PTE page
 * of 1024 4-byte entries. Unlike the MIPS-style tables the PTE pages
 * are *not* contiguous in either space — the table is never indexed as
 * a unit — so each PTE page lives in its own physical frame, allocated
 * first-touch from the frame pool (which naturally interleaves table
 * frames with other allocations, scattering them).
 *
 * Every TLB miss costs exactly two physical memory references:
 *   1. RPTE load at  pdBase + (v / ptesPerPage) * 4
 *   2. PTE  load at  ptePageFrame(v / ptesPerPage) + (v % ptesPerPage) * 4
 * Both are physical and cacheable; neither can cause a nested TLB miss.
 */

#ifndef VMSIM_PT_INTEL_PAGE_TABLE_HH
#define VMSIM_PT_INTEL_PAGE_TABLE_HH

#include "mem/phys_mem.hh"
#include "pt/page_table.hh"

namespace vmsim
{

/** Two-tiered top-down-walked hierarchical page table (Intel x86). */
class IntelPageTable : public PageTableBase
{
  public:
    /**
     * @param phys_mem frame pool; the page directory is reserved from
     *                 it and PTE pages are first-touch allocated
     * @param page_bits log2 page size (paper: 12)
     */
    explicit IntelPageTable(PhysMem &phys_mem, unsigned page_bits = 12);

    /**
     * Cache address (physical window) of the root (page directory)
     * entry covering user VPN @p v.
     */
    Addr
    rootEntryAddr(Vpn v) const
    {
        return physToCacheAddr(pdPhysBase_ +
                               (v / ptesPerPage()) * kHierPteSize);
    }

    /**
     * Cache address (physical window) of the leaf PTE mapping user VPN
     * @p v. Each segment's PTE page is a PhysMem page keyed above every
     * user VPN: allocated on first touch, among the data frames.
     */
    Addr
    leafEntryAddr(Vpn v)
    {
        Addr page_phys = physMem_.frameOf(kTableKeyBase + v / ptesPerPage())
                         << pageBits();
        return physToCacheAddr(page_phys +
                               (v % ptesPerPage()) * kHierPteSize);
    }

    /** Number of PTE pages allocated so far (counted on each call). */
    std::uint64_t ptePagesAllocated() const;

    std::uint64_t pdBytes() const
    {
        return divCeilPages() * kHierPteSize;
    }

  private:
    /**
     * Key of segment 0's PTE page in the shared frame pool. Real user
     * VPNs are < 2^32, so keys above that never collide with them.
     */
    static constexpr std::uint64_t kTableKeyBase = std::uint64_t{1} << 40;

    /** Number of 4 MB segments covering the user space. */
    std::uint64_t
    divCeilPages() const
    {
        return userPages() / ptesPerPage();
    }

    PhysMem &physMem_;
    Addr pdPhysBase_;
};

} // namespace vmsim

#endif // VMSIM_PT_INTEL_PAGE_TABLE_HH
