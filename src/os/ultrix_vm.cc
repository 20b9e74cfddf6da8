#include "os/ultrix_vm.hh"

namespace vmsim
{

UltrixVm::UltrixVm(MemSystem &mem, PhysMem &phys_mem,
                   const TlbParams &itlb_params,
                   const TlbParams &dtlb_params, const HandlerCosts &costs,
                   unsigned page_bits, std::uint64_t seed, unsigned cores)
    : TlbVm("ULTRIX", mem, cores, itlb_params, dtlb_params, seed ^ 0xA1,
            seed ^ 0xB2, page_bits),
      pt_(phys_mem, page_bits), costs_(costs)
{
}

void
UltrixVm::walk(Addr vaddr, CoreId core, Tlb &target)
{
    Vpn v = pt_.vpnOf(vaddr);

    if (l2TlbLookup(v, target, core))
        return;

    touchPage(v, core);

    // User-level miss handler (interrupt + 10 instructions).
    takeInterrupt();
    fetchHandler(EventLevel::User, kUserHandlerBase, costs_.userInstrs, v);

    Addr upte = pt_.uptEntryAddr(v);

    // The UPTE reference is a mapped kernel-virtual load; if its page
    // is not in the D-TLB the root-level handler runs first (nested
    // interrupt), loads the RPTE from wired physical memory, and
    // installs the UPT-page mapping in the protected slots.
    if (!walkLookup(tlbs_.dtlb(core), pt_.uptPageVpn(v))) {
        takeInterrupt();
        fetchHandler(EventLevel::Root, kRootHandlerBase,
                     costs_.rootInstrs, v);
        pteFetch(pt_.rptEntryAddr(v), kHierPteSize, AccessClass::PteRoot,
                 v);
        insertKernelMapping(pt_.uptPageVpn(v), core);
    }

    pteFetch(upte, kHierPteSize, AccessClass::PteUser, v);
    l2TlbFill(v, core);
    target.insert(v);
}

} // namespace vmsim
