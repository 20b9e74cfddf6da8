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
 * refBlock() tests the observers and the L2 once per block. An
 * unobserved block with a split L2 runs split (VmSystem::splitBlock()):
 * the front end is refBlockT<false>, which probes the I- and D-TLBs in
 * scalar record order, walks, touches pages and marks stores dirty,
 * and issues no cache access; the back end then merges the block's
 * service log into its user accesses. Any other block runs
 * refBlockT<true>, the paper's loop with every cache access inline and
 * every observer test live. Either way the per-batch prologue hoists
 * the observer null tests and the per-core TLB pair out of the
 * per-record loop, and the per-core stats lookup sits inside
 * noteItlbMiss/noteDtlbMiss, on the miss path only. The walks probe
 * TLBs through VmSystem::walkLookup(), which is bare unless a
 * collector is attached.
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
     * Derived::walk on a miss, then, with @p kObs, fetch through the
     * I-side caches. Without it the kernel is a front end's: the miss
     * stamps block record @p rec for the refill's service log, and the
     * fetch is the back end's. The kernels are forced inline: with
     * several callers (the block bodies, the scalar entry points) the
     * compiler otherwise calls them out of line, a call per reference.
     */
    template <bool kObs>
    [[gnu::always_inline]] void
    instRefK(const Access &a, Tlb &itlb, std::size_t rec)
    {
        const Addr pc = a.addr;
        const Vpn v = pc >> pageBits_;
        if (!itlb.template lookupT<kObs>(v)) {
            noteItlbMiss(pc, v, a.core, rec);
            self().walk(pc, a.core, itlb);
            endMissService();
        }
        if constexpr (kObs)
            userInstFetchT(pc);
    }

    /** The data-side twin of instRefK<true>(). */
    [[gnu::always_inline]] void
    dataRefK(const Access &a, Tlb &dtlb)
    {
        const Vpn v = a.addr >> pageBits_;
        if (!dtlb.lookupT<true>(v))
            dtlbRefill(a, v, dtlb, 0);
        userDataAccessT(a.addr, a.store);
        notePressureStore(a.addr, a.store);
    }

    void
    instRef(const Access &a) override
    {
        instRefK<true>(a, tlbs_.itlb(a.core), 0);
    }

    void
    dataRef(const Access &a) override
    {
        dataRefK(a, tlbs_.dtlb(a.core));
    }

    /**
     * Batched dispatch: one observer test and one core-to-TLB lookup
     * per block, then the whole block runs split or observed.
     */
    void
    refBlock(const AccessBlock &blk) override
    {
        if (splitLegal())
            splitBlock(blk, [this, &blk] { refBlockT<false>(blk); });
        else
            refBlockT<true>(blk);
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
     * core's I/D TLB pair that holds it (targeted invalidates, not
     * random evictions — the invalidated VPN is known exactly).
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

    /** Refill @p dtlb after block record @p rec missed on @p a. */
    [[gnu::always_inline]] void
    dtlbRefill(const Access &a, Vpn v, Tlb &dtlb, std::size_t rec)
    {
        noteDtlbMiss(a.addr, v, a.core, rec);
        self().walk(a.addr, a.core, dtlb);
        endMissService();
    }

    // LINT-KERNEL-BEGIN (tlb_vm)
    /**
     * The block loop of both bodies, in scalar record order. With
     * @p kObs it stamps each record as the event timebase. Without it
     * the loop is a front end and must issue no cache access (the back
     * end issues them all); it probes the D-TLB on every record and
     * takes the probe on loads and stores only (Tlb::lookupIf), since
     * a branch on isMemOp() would mispredict on a third of the records.
     * A record that is neither probes the last VPN taken.
     */
    template <bool kObs>
    void
    refBlockT(const AccessBlock &blk)
    {
        Tlb &itlb = tlbs_.itlb(blk.core);
        Tlb &dtlb = tlbs_.dtlb(blk.core);
        Access a;
        a.core = blk.core;
        Vpn dv = 0;
        // Locals: the miss path's calls would reload members per record.
        const TraceRecord *const recs = blk.recs;
        const std::size_t n = blk.n;
        const unsigned pb = pageBits_;
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &r = recs[i];
            if constexpr (kObs)
                setCurrentInstr(blk.firstInstr + i);
            a.addr = r.pc;
            a.store = false;
            instRefK<kObs>(a, itlb, i);
            if constexpr (kObs) {
                if (r.isMemOp()) {
                    a.addr = r.daddr;
                    a.store = r.isStore();
                    dataRefK(a, dtlb);
                }
            } else {
                const bool mem = r.isMemOp();
                a.addr = r.daddr;
                a.store = r.isStore();
                dv ^= (dv ^ (a.addr >> pb)) & (Vpn{0} - mem);
                if (!dtlb.lookupIf(mem, dv))
                    dtlbRefill(a, dv, dtlb, i);
                notePressureStore(a.addr, a.store);
            }
        }
    }
    // LINT-KERNEL-END (tlb_vm)
};

} // namespace vmsim

#endif // VMSIM_OS_TLB_VM_HH
