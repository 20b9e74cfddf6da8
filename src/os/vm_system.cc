#include "os/vm_system.hh"

#include "base/logging.hh"

namespace vmsim
{

VmSystem::VmSystem(std::string name, MemSystem &mem, unsigned cores)
    : name_(std::move(name)), mem_(mem), cores_(cores ? cores : 1)
{
    stats_.perCore.assign(cores_, CoreStats{});
}

VmSystem::~VmSystem() = default;

void
VmSystem::attachLatency(LatencyCollector *lat)
{
    lat_ = lat;
    svcAcc_ = 0;
    missOpen_ = walkOpen_ = false;
    // Wire each TLB's residency histograms through the same collector.
    // The const accessors are the only virtual handles the base class
    // has, but the TLBs themselves are mutable members of the concrete
    // organization, so the const_cast stays within the object's actual
    // mutability.
    for (CoreId c = 0; c < cores_; ++c) {
        auto *i = const_cast<Tlb *>(itlb(c));
        auto *d = const_cast<Tlb *>(dtlb(c));
        if (i)
            i->attachResidency(lat ? &lat->itlbLifetime(c) : nullptr,
                               lat ? &lat->itlbReuse(c) : nullptr);
        if (d)
            d->attachResidency(lat ? &lat->dtlbLifetime(c) : nullptr,
                               lat ? &lat->dtlbReuse(c) : nullptr);
    }
}

void
VmSystem::endMissService()
{
    if (!lat_)
        return;
    endHwWalk();
    if (missOpen_) {
        lat_->missService(missCore_).sampleCount(svcAcc_ - missStart_);
        missOpen_ = false;
    }
}

void
VmSystem::refBlock(const AccessBlock &blk)
{
    // Fallback for organizations without a devirtualized override:
    // same order as the scalar loop, through the vtable.
    Access a;
    a.core = blk.core;
    for (std::size_t i = 0; i < blk.n; ++i) {
        const TraceRecord &r = blk.recs[i];
        setCurrentInstr(blk.firstInstr + i);
        a.addr = r.pc;
        a.store = false;
        instRef(a);
        if (r.isMemOp()) {
            a.addr = r.daddr;
            a.store = r.isStore();
            dataRef(a);
        }
    }
}

void
VmSystem::attachL2Tlb(const TlbParams &params, Cycles hit_cycles,
                      std::uint64_t seed, bool shared)
{
    l2Tlbs_.clear();
    const unsigned slots = (shared || cores_ == 1) ? 1 : cores_;
    l2Tlbs_.reserve(slots);
    for (unsigned c = 0; c < slots; ++c)
        l2Tlbs_.push_back(std::make_unique<Tlb>(
            params, CoreTlbs::coreSeed(seed, c)));
    l2TlbHitCycles_ = hit_cycles;
}

bool
VmSystem::l2TlbLookup(Vpn v, Tlb &target, CoreId core)
{
    Tlb *l2 = l2SlotFor(core);
    if (!l2)
        return false;
    if (!l2->lookupT<false>(v)) // no residency histograms on L2 TLBs
        return false;
    // Hardware refill from the second level: no interrupt, no
    // handler, no page-table reference.
    ++stats_.l2TlbHits;
    stats_.hwWalkCycles += l2TlbHitCycles_;
    if (lat_)
        svcAcc_ += l2TlbHitCycles_;
    emitEvent(EventKind::L2TlbHit, EventLevel::User, 0, v,
              l2TlbHitCycles_);
    target.insert(v);
    return true;
}

void
VmSystem::l2TlbFill(Vpn v, CoreId core)
{
    if (Tlb *l2 = l2SlotFor(core))
        l2->insert(v);
}

void
VmSystem::switchTlbs(CoreId core, CoreTlbs &tlbs)
{
    noteContextSwitch(core);
    Tlb &itlb = tlbs.itlb(core);
    Tlb &dtlb = tlbs.dtlb(core);
    Tlb *l2 = l2SlotFor(core);
    if (itlb.params().tagged()) {
        itlb.evictRandom(ctxSwitchEvictions_);
        dtlb.evictRandom(ctxSwitchEvictions_);
        if (l2)
            l2->evictRandom(ctxSwitchEvictions_);
    } else {
        itlb.invalidateAll();
        dtlb.invalidateAll();
        if (l2)
            l2->invalidateAll();
    }
    if (cores_ > 1)
        shootdownBroadcast(core, tlbs);
}

void
VmSystem::shootdownBroadcast(CoreId from, CoreTlbs &tlbs)
{
    // The departing address space's mappings may be unmapped or its
    // ASID reused, so every other core must drop potentially stale
    // entries. Each receiver pays the IPI delivery plus the
    // invalidate-handler execution; the cycles land in a dedicated
    // counter so the paper's single-core cost taxonomy is untouched.
    ++stats_.shootdownsSent;
    ++stats_.perCore[from].shootdownsSent;
    const Cycles perRecv = shootdownIpiCycles_ + shootdownHandlerCycles_;
    const bool sharedL2 = l2Tlbs_.size() <= 1;
    for (CoreId c = 0; c < cores_; ++c) {
        if (c == from)
            continue;
        ++stats_.shootdownsRecv;
        ++stats_.perCore[c].shootdownsRecv;
        stats_.shootdownCycles += perRecv;
        if (lat_)
            lat_->shootdown(c).sampleCount(perRecv);
        tlbs.itlb(c).evictRandom(shootdownEvictions_);
        tlbs.dtlb(c).evictRandom(shootdownEvictions_);
        if (!sharedL2)
            l2Tlbs_[c]->evictRandom(shootdownEvictions_);
        emitEvent(EventKind::Shootdown, EventLevel::User, 0, c, perRecv);
    }
}

void
VmSystem::enablePressure(PhysMem &pm, Cycles read_cycles,
                         Cycles writeback_cycles, unsigned page_bits)
{
    panicIf(!pm.budgeted(),
            "enablePressure requires a PhysMem frame budget");
    pressure_ = &pm;
    pressurePageBits_ = page_bits;
    faultReadCycles_ = read_cycles;
    faultWritebackCycles_ = writeback_cycles;
}

void
VmSystem::touchPageSlow(Vpn v, CoreId core)
{
    ++stats_.pagesTouched;
    if (pressure_->touchResidentPage(v)) {
        ++stats_.reusedFrames;
        // Wired page-table growth may have shrunk the budget below the
        // current residency; reclaim the overage here (protecting the
        // page being touched) so residency <= capacity always holds at
        // audit time.
        while (pressure_->overBudget())
            evictVictim(v, core);
        return;
    }
    ++stats_.majorFaults;
    ++stats_.perCore[coreSlot(core)].majorFaults;
    Cycles cost = faultReadCycles_;
    while (pressure_->mustEvictForAdmit())
        cost += evictVictim(v, core);
    pressure_->admitPage(v);
    stats_.faultCycles += cost;
    if (lat_) {
        svcAcc_ += cost;
        lat_->fault(coreSlot(core)).sampleCount(cost);
    }
    emitEvent(EventKind::MajorFault, EventLevel::User, 0, v, cost);
}

Cycles
VmSystem::evictVictim(Vpn exclude, CoreId core)
{
    FramePool::Victim victim = pressure_->evictPage(exclude);
    ++stats_.evictions;
    Cycles wb = 0;
    if (victim.dirty) {
        ++stats_.writebacks;
        wb = faultWritebackCycles_;
    }
    // The victim must not stay reachable through any translation
    // structure: first-level TLBs on every core (the organization's
    // override), every L2 TLB slice, then its page-table entry.
    invalidateTranslation(victim.vpn);
    for (auto &l2 : l2Tlbs_)
        l2->invalidate(victim.vpn);
    invalidatePte(victim.vpn);
    if (cores_ > 1)
        evictionShootdown(core);
    emitEvent(EventKind::Eviction, EventLevel::User, 0, victim.vpn, wb);
    return wb;
}

void
VmSystem::evictionShootdown(CoreId from)
{
    from = coreSlot(from);
    ++stats_.shootdownsSent;
    ++stats_.perCore[from].shootdownsSent;
    const Cycles perRecv = shootdownIpiCycles_ + shootdownHandlerCycles_;
    for (CoreId c = 0; c < cores_; ++c) {
        if (c == from)
            continue;
        ++stats_.shootdownsRecv;
        ++stats_.perCore[c].shootdownsRecv;
        stats_.shootdownCycles += perRecv;
        if (lat_)
            lat_->shootdown(c).sampleCount(perRecv);
        emitEvent(EventKind::Shootdown, EventLevel::User, 0, c, perRecv);
    }
}

void
VmSystem::doEmit(EventKind kind, EventLevel level, Addr vaddr, Vpn vpn,
                 Cycles cycles)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.level = static_cast<std::uint8_t>(level);
    ev.instr = curInstr_;
    ev.vaddr = vaddr;
    ev.vpn = vpn;
    ev.cycles = cycles;
    sink_->event(ev);
}

void
VmSystem::logService(bool inst, AccessClass cls, Addr addr, unsigned n)
{
    // Only a D-TLB miss's handler fetches follow their record's own
    // access on their side; every D-side access precedes it.
    const Counter slot = 2 * Counter{svcRec_} + (inst && svcAfter_);
    ServiceAccess a;
    a.addr = addr;
    a.slot = slot;
    a.n = n;
    a.cls = static_cast<unsigned>(cls);
    panicIf(a.slot != slot || a.n != n, "service access of ", n,
            " at block record ", svcRec_, " does not fit the log");
    (inst ? blockLog_.inst : blockLog_.data).push_back(a);
}

void
VmSystem::keepBlockLog(const AccessBlock &blk)
{
    ServiceLog &to = *record_;
    to.overflow = to.overflow || (2 * (blk.firstInstr + blk.n)) >> 40 != 0 ||
                  to.inst.size() + blockLog_.inst.size() >
                      ServiceLog::kMaxPerSide ||
                  to.data.size() + blockLog_.data.size() >
                      ServiceLog::kMaxPerSide;
    if (to.overflow)
        return; // never replayed
    for (auto side : {&ServiceLog::inst, &ServiceLog::data})
        for (ServiceAccess a : blockLog_.*side) {
            a.slot += 2 * blk.firstInstr;
            (to.*side).push_back(a);
        }
}

void
VmSystem::backEnd(const AccessBlock &blk)
{
    back_.start(blockLog_);
    back_.block(blk.recs, blk.n, 0);
    back_.flush(blk.n);
    if (record_)
        keepBlockLog(blk);
    blockLog_.inst.clear();
    blockLog_.data.clear();
}

// LINT-KERNEL-BEGIN (back end)
/**
 * Between two logged accesses each pass runs a plain loop bounded by
 * stopAt(). The memory ops are listed without a branch.
 */
void
ServiceReplay::block(const TraceRecord *recs, std::size_t n, Counter first)
{
    if (ops_.size() < n)
        ops_.resize(n);
    std::size_t *ops = ops_.data();
    std::size_t nops = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ops[nops] = i;
        nops += recs[i].isMemOp();
    }
    std::size_t stop = stopAt(nextData_, first, n);
    for (std::size_t j = 0; j < nops; ++j) {
        const std::size_t i = ops[j];
        if (i >= stop) {
            issueData(2 * (first + i));
            stop = stopAt(nextData_, first, n);
        }
        mem_.dataAccess(recs[i].daddr, kDataBytes, recs[i].isStore(),
                        AccessClass::User);
    }
    for (std::size_t i = 0;; issueInst(2 * (first + i))) {
        for (stop = stopAt(nextInst_, first, n); i < stop; ++i)
            mem_.instFetch(recs[i].pc, AccessClass::User);
        if (i == n)
            break;
    }
}
// LINT-KERNEL-END (back end)

MemLevel
VmSystem::serviceLoad(Addr addr, unsigned size, AccessClass cls)
{
    if (inFrontEnd_) {
        logService(false, cls, addr, size);
        return MemLevel::L1;
    }
    MemLevel lvl = mem_.dataAccess(addr, size, false, cls);
    if (lat_)
        svcAcc_ += memPenalty(lvl);
    return lvl;
}

MemLevel
VmSystem::pteFetch(Addr entry_addr, unsigned size, AccessClass cls, Vpn v)
{
    MemLevel lvl = serviceLoad(entry_addr, size, cls);
    ++stats_.pteLoads;
    if (sink_) {
        // AccessClass::PteUser/PteKernel/PteRoot map onto the
        // user/kernel/root page-table levels in declaration order.
        auto level = static_cast<EventLevel>(
            static_cast<unsigned>(cls) -
            static_cast<unsigned>(AccessClass::PteUser));
        doEmit(EventKind::PteFetch, level, entry_addr, v, 0);
    }
    return lvl;
}

void
VmSystem::fetchHandler(EventLevel level, Addr base, unsigned n, Vpn v)
{
    Counter *calls = nullptr;
    Counter *instrs = nullptr;
    switch (level) {
      case EventLevel::User:
        calls = &stats_.uhandlerCalls;
        instrs = &stats_.uhandlerInstrs;
        break;
      case EventLevel::Kernel:
        calls = &stats_.khandlerCalls;
        instrs = &stats_.khandlerInstrs;
        break;
      case EventLevel::Root:
        calls = &stats_.rhandlerCalls;
        instrs = &stats_.rhandlerInstrs;
        break;
    }
    panicIf(!calls, "fetchHandler: bad handler level ",
            static_cast<unsigned>(level));
    ++*calls;
    *instrs += n;
    emitEvent(EventKind::HandlerEnter, level, base, v, n);
    if (inFrontEnd_) {
        logService(true, AccessClass::HandlerFetch, base, n);
    } else if (lat_) {
        // Each handler instruction costs its base cycle plus whatever
        // the fetch's resolution level implies.
        Cycles cyc = n;
        for (unsigned k = 0; k < n; ++k)
            cyc += memPenalty(
                mem_.instFetch(base + std::uint64_t{k} * kInstrBytes,
                               AccessClass::HandlerFetch));
        svcAcc_ += cyc;
    } else {
        for (unsigned k = 0; k < n; ++k)
            mem_.instFetch(base + std::uint64_t{k} * kInstrBytes,
                           AccessClass::HandlerFetch);
    }
    emitEvent(EventKind::HandlerExit, level, base, v, n);
}

} // namespace vmsim
