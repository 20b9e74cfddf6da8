#include "os/mach_vm.hh"

namespace vmsim
{

MachVm::MachVm(MemSystem &mem, PhysMem &phys_mem,
               const TlbParams &itlb_params, const TlbParams &dtlb_params,
               const HandlerCosts &costs, unsigned page_bits,
               std::uint64_t seed, unsigned cores)
    : TlbVm("MACH", mem, cores, itlb_params, dtlb_params, seed ^ 0xC3,
            seed ^ 0xD4, page_bits),
      pt_(phys_mem, page_bits), costs_(costs)
{
}

void
MachVm::walk(Addr vaddr, CoreId core, Tlb &target)
{
    Vpn v = pt_.vpnOf(vaddr);

    if (l2TlbLookup(v, target, core))
        return;

    touchPage(v, core);

    // User-level miss: dedicated vector, 10 instructions.
    takeInterrupt();
    fetchHandler(EventLevel::User, kUserHandlerBase, costs_.userInstrs, v);

    Addr upte = pt_.uptEntryAddr(v);
    Vpn upte_page = pt_.uptPageVpn(v);
    Tlb &dtlb = tlbs_.dtlb(core);

    if (!walkLookup(dtlb, upte_page)) {
        // Kernel-level miss on the user-page-table page: dedicated
        // kernel vector, 20 instructions.
        takeInterrupt();
        fetchHandler(EventLevel::Kernel, kKernelHandlerBase,
                     costs_.kernelInstrs, upte_page);

        Addr kpte = pt_.kptEntryAddr(upte_page);
        Vpn kpte_page = pt_.kptPageVpn(upte_page);

        if (!walkLookup(dtlb, kpte_page)) {
            // Root-level miss: the long administrative path (500
            // instructions + 10 bookkeeping loads) plus the RPTE load
            // from wired physical memory.
            takeInterrupt();
            fetchHandler(EventLevel::Root, kRootHandlerBase,
                         costs_.rootInstrs, kpte_page);
            for (unsigned i = 0; i < costs_.adminLoads; ++i)
                serviceLoad(pt_.adminDataAddr(i), kDataBytes,
                            AccessClass::PteRoot);
            pteFetch(pt_.rptEntryAddr(kpte_page), kHierPteSize,
                     AccessClass::PteRoot, kpte_page);
            insertKernelMapping(kpte_page, core);
        }

        pteFetch(kpte, kHierPteSize, AccessClass::PteKernel, upte_page);
        insertKernelMapping(upte_page, core);
    }

    pteFetch(upte, kHierPteSize, AccessClass::PteUser, v);
    l2TlbFill(v, core);
    target.insert(v);
}

} // namespace vmsim
