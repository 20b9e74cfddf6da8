/**
 * @file
 * Shared page-table infrastructure: the simulated address-space layout
 * and a small base class with page arithmetic.
 *
 * Address-space conventions (all five simulated systems):
 *
 *  - Virtual addresses are 32 bits. The user owns the bottom 2 GB
 *    [0, 0x80000000); the kernel owns the top 2 GB.
 *  - Page size is 4 KB by default (the paper's only page size), but all
 *    layout math is parameterized on page_bits.
 *  - The caches are virtually addressed. References made with *physical*
 *    addresses (root tables, the Intel and PA-RISC tables) are presented
 *    to the caches through an unmapped-but-cacheable window at
 *    kPhysWindowBase, exactly like MIPS kseg0: cache address =
 *    kPhysWindowBase + physical address. This keeps physical table
 *    references from aliasing user virtual addresses while still letting
 *    them displace user data in the shared caches — the pollution effect
 *    the paper measures.
 *  - Virtually-addressed page tables live in the kernel half:
 *    the ULTRIX/NOTLB user page table at 0xC0000000, the MACH per-process
 *    tables at 0xA0000000 + pid * 2 MB, and the MACH kernel page table in
 *    the top 4 MB at 0xFFC00000.
 */

#ifndef VMSIM_PT_PAGE_TABLE_HH
#define VMSIM_PT_PAGE_TABLE_HH

#include "base/logging.hh"
#include "base/types.hh"
#include "base/units.hh"

namespace vmsim
{

/** Base of the user virtual address space. */
constexpr Addr kUserBase = 0;

/** Size of the user virtual address space (paper: 2 GB). */
constexpr Addr kUserSpan = 2_GiB;

/** First kernel virtual address. */
constexpr Addr kKernelBase = kUserBase + kUserSpan;

/**
 * Base of the unmapped cacheable window through which physical
 * addresses are presented to the (virtual) caches; cf. MIPS kseg0.
 */
constexpr Addr kPhysWindowBase = 0x80000000ULL;

/** Map a physical address into the cache address space. */
constexpr Addr
physToCacheAddr(Addr paddr)
{
    return kPhysWindowBase + paddr;
}

/** Virtual base of the ULTRIX / NOTLB user page table. */
constexpr Addr kUptBaseUltrix = 0xC0000000ULL;

/** Virtual base of the MACH per-process page-table region. */
constexpr Addr kMachUptRegion = 0xA0000000ULL;

/** Virtual base of the MACH kernel page table (top 4 MB of 4 GB). */
constexpr Addr kMachKptBase = 0xFFC00000ULL;

/** Size of a hierarchical page-table entry (paper: 4 bytes). */
constexpr unsigned kHierPteSize = 4;

/** Size of a PA-RISC hashed-page-table entry (paper: 16 bytes). */
constexpr unsigned kHashedPteSize = 16;

/**
 * Common page arithmetic for the concrete page-table organizations.
 * Not polymorphic: each organization has its own walk structure, and
 * the VM systems in os/ drive them through their concrete interfaces.
 */
class PageTableBase
{
  public:
    explicit PageTableBase(unsigned page_bits)
        : pageBits_(page_bits)
    {
        fatalIf(page_bits < 10 || page_bits > 20,
                "unreasonable page size 2^", page_bits);
    }

    unsigned pageBits() const { return pageBits_; }
    std::uint64_t pageSize() const { return std::uint64_t{1} << pageBits_; }

    /** Virtual page number of @p addr. */
    Vpn vpnOf(Addr addr) const { return addr >> pageBits_; }

    /** Number of pages needed to map the user space. */
    std::uint64_t userPages() const { return kUserSpan >> pageBits_; }

    /** PTEs per page for 4-byte hierarchical PTEs. */
    std::uint64_t ptesPerPage() const { return pageSize() / kHierPteSize; }

  protected:
    unsigned pageBits_;
};

} // namespace vmsim

#endif // VMSIM_PT_PAGE_TABLE_HH
