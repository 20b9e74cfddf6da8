#include "pt/intel_page_table.hh"

namespace vmsim
{

IntelPageTable::IntelPageTable(PhysMem &phys_mem, unsigned page_bits)
    : PageTableBase(page_bits), physMem_(phys_mem)
{
    pdPhysBase_ = phys_mem.reserveRegion(pdBytes(), pageSize());
}

std::uint64_t
IntelPageTable::ptePagesAllocated() const
{
    std::uint64_t pages = 0;
    for (std::uint64_t s = 0; s < divCeilPages(); ++s)
        pages += physMem_.isMapped(kTableKeyBase + s);
    return pages;
}

} // namespace vmsim
