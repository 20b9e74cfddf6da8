/**
 * @file
 * TlbVm: the common per-core-TLB skeleton of the six TLB-based
 * organizations (ULTRIX, MACH, INTEL, PA-RISC, HW-MIPS, HW-INVERTED),
 * expressed as a CRTP base so the entire per-reference hot path —
 * TLB probe, miss bookkeeping, page-table walk, cache access — is one
 * monomorphized kernel per organization with zero virtual dispatch.
 *
 * Every one of those organizations runs the paper's same inner loop
 * (Section 3.1): probe the core's I- or D-TLB, on a miss run the
 * organization's refill mechanism (`Derived::walk`), then issue the
 * user cache access. Only `walk` differs. The base therefore owns the
 * CoreTlbs and the loop; the derived class contributes its walk as a
 * plain non-virtual member that the kernel calls through
 * `static_cast<Derived *>(this)` — resolved at compile time, inlined
 * into the batch loop.
 *
 * Each kernel instantiates twice (kObs true/false): the observed body
 * keeps every event-sink and latency-collector test, the bare body
 * compiles them out. refBlock() selects once per batch via
 * VmSystem::observedRefs() — the per-batch prologue that hoists the
 * observer null tests, the per-core TLB pair, and (inside
 * noteItlbMiss/noteDtlbMiss, which only run on the miss path) the
 * per-core stats lookup out of the per-record loop.
 */

#ifndef VMSIM_OS_TLB_VM_HH
#define VMSIM_OS_TLB_VM_HH

#include "os/vm_system.hh"

namespace vmsim
{

/**
 * CRTP skeleton of a TLB-per-core organization. @p Derived must
 * provide `void walk(Addr vaddr, CoreId core, Tlb &target)` (private
 * is fine with `friend class TlbVm<Derived>;`) implementing its
 * TLB-refill mechanism: interrupt + handler for the software-managed
 * designs, FSM cycles + PTE fetches for the hardware-walked ones.
 */
template <class Derived>
class TlbVm : public VmSystem
{
  public:
    /**
     * @param name organization name (paper's tag, e.g. "ULTRIX")
     * @param mem shared cache hierarchy
     * @param cores simulated cores (one I/D TLB pair each)
     * @param iparams / @p dparams first-level TLB geometry
     * @param iseed / @p dseed core-0 replacement RNG seeds
     * @param page_bits log2 page size, for the VPN split
     */
    TlbVm(std::string name, MemSystem &mem, unsigned cores,
          const TlbParams &iparams, const TlbParams &dparams,
          std::uint64_t iseed, std::uint64_t dseed, unsigned page_bits)
        : VmSystem(std::move(name), mem, cores),
          tlbs_(this->cores(), iparams, dparams, iseed, dseed),
          pageBits_(page_bits)
    {}

    /**
     * Monomorphized instruction-fetch kernel: probe @p itlb (the
     * issuing core's I-TLB, hoisted by the caller), refill via
     * Derived::walk on a miss, then fetch through the I-side caches.
     */
    template <bool kObs>
    void
    instRefK(const Access &a, Tlb &itlb)
    {
        const Addr pc = a.addr;
        const Vpn v = pc >> pageBits_;
        if (!itlb.template lookupT<kObs>(v)) {
            noteItlbMiss(pc, v, a.core);
            self().walk(pc, a.core, itlb);
            endMissService();
        }
        userInstFetchT<kObs>(pc);
    }

    /** The data-side twin of instRefK(). */
    template <bool kObs>
    void
    dataRefK(const Access &a, Tlb &dtlb)
    {
        const Addr addr = a.addr;
        const Vpn v = addr >> pageBits_;
        if (!dtlb.template lookupT<kObs>(v)) {
            noteDtlbMiss(addr, v, a.core);
            self().walk(addr, a.core, dtlb);
            endMissService();
        }
        userDataAccessT<kObs>(addr, a.store);
        notePressureStore(addr, a.store);
    }

    void
    instRef(const Access &a) override
    {
        instRefK<true>(a, tlbs_.itlb(a.core));
    }

    void
    dataRef(const Access &a) override
    {
        dataRefK<true>(a, tlbs_.dtlb(a.core));
    }

    /**
     * Batched dispatch: one observer test and one core-to-TLB lookup
     * per block, then the whole block runs through the matching
     * monomorphized kernel pair.
     */
    void
    refBlock(const AccessBlock &blk) override
    {
        if (observedRefs())
            refBlockT<true>(blk);
        else
            refBlockT<false>(blk);
    }

    const Tlb *itlb(CoreId core) const override { return &tlbs_.itlb(core); }
    const Tlb *dtlb(CoreId core) const override { return &tlbs_.dtlb(core); }
    using VmSystem::contextSwitch;
    using VmSystem::dtlb;
    using VmSystem::itlb;

    void contextSwitch(CoreId core) override { switchTlbs(core, tlbs_); }

  protected:
    /**
     * Frame-budget eviction of @p v: drop its translation from every
     * core's I/D TLB pair (targeted invalidates, not random evictions —
     * the invalidated VPN is known exactly).
     */
    void
    invalidateTranslation(Vpn v) override
    {
        for (CoreId c = 0; c < cores(); ++c) {
            tlbs_.itlb(c).invalidate(v);
            tlbs_.dtlb(c).invalidate(v);
        }
    }

    CoreTlbs tlbs_;      ///< per-core first-level I/D TLB pairs
    unsigned pageBits_;  ///< log2 page size (VPN = addr >> pageBits_)

  private:
    Derived &self() { return static_cast<Derived &>(*this); }

    // LINT-KERNEL-BEGIN (tlb_vm)
    template <bool kObs>
    void
    refBlockT(const AccessBlock &blk)
    {
        Tlb &itlb = tlbs_.itlb(blk.core);
        Tlb &dtlb = tlbs_.dtlb(blk.core);
        Access a;
        a.core = blk.core;
        for (std::size_t i = 0; i < blk.n; ++i) {
            const TraceRecord &r = blk.recs[i];
            if constexpr (kObs)
                setCurrentInstr(blk.firstInstr + i);
            a.addr = r.pc;
            a.store = false;
            instRefK<kObs>(a, itlb);
            if (r.isMemOp()) {
                a.addr = r.daddr;
                a.store = r.isStore();
                dataRefK<kObs>(a, dtlb);
            }
        }
    }
    // LINT-KERNEL-END (tlb_vm)
};

} // namespace vmsim

#endif // VMSIM_OS_TLB_VM_HH
