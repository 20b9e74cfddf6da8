#include "os/hw_mips_vm.hh"

namespace vmsim
{

HwMipsVm::HwMipsVm(MemSystem &mem, PhysMem &phys_mem,
                   const TlbParams &itlb_params,
                   const TlbParams &dtlb_params, const HandlerCosts &costs,
                   unsigned page_bits, std::uint64_t seed, unsigned cores)
    : TlbVm("HW-MIPS", mem, cores, itlb_params, dtlb_params, seed ^ 0x5B,
            seed ^ 0x6C, page_bits),
      pt_(phys_mem, page_bits), costs_(costs)
{
}

void
HwMipsVm::walk(Addr vaddr, CoreId core, Tlb &target)
{
    Vpn v = pt_.vpnOf(vaddr);

    if (l2TlbLookup(v, target, core))
        return;

    touchPage(v, core);

    beginHwWalk(v, costs_.hwWalkCycles, core);

    Addr upte = pt_.uptEntryAddr(v);
    Tlb &dtlb = tlbs_.dtlb(core);

    if (!walkLookup(dtlb, pt_.uptPageVpn(v))) {
        // Nested: the FSM falls back to the physical root table.
        noteExtraWalkCycles(kNestedWalkCycles);
        pteFetch(pt_.rptEntryAddr(v), kHierPteSize, AccessClass::PteRoot,
                 v);
        if (dtlb.params().protectedSlots > 0)
            dtlb.insertProtected(pt_.uptPageVpn(v));
        else
            dtlb.insert(pt_.uptPageVpn(v));
    }

    pteFetch(upte, kHierPteSize, AccessClass::PteUser, v);
    l2TlbFill(v, core);
    target.insert(v);
}

} // namespace vmsim
