#include "check/invariants.hh"

#include <cmath>
#include <cstdlib>

#include "base/error.hh"
#include "core/factory.hh"
#include "obs/telemetry.hh"
#include "mem/phys_mem.hh"
#include "os/org_laws.hh"
#include "tlb/tlb.hh"

namespace vmsim
{

namespace
{

const char *const kClassNames[kNumAccessClasses] = {
    "User", "HandlerFetch", "PteUser", "PteKernel", "PteRoot",
};

/** |a - b| within a relative epsilon (both derived from the same
 *  counters, so only summation-order noise is tolerated). */
bool
near(double a, double b)
{
    double scale = std::fmax(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 1e-9 * std::fmax(scale, 1.0);
}

} // namespace

void
CheckReport::merge(const CheckReport &other)
{
    checked_ += other.checked_;
    violations_.insert(violations_.end(), other.violations_.begin(),
                       other.violations_.end());
}

void
CheckReport::mergePrefixed(const CheckReport &other,
                           const std::string &prefix)
{
    checked_ += other.checked_;
    for (const CheckViolation &v : other.violations_)
        violations_.push_back({prefix + v.law, v.message});
}

std::string
CheckReport::toString() const
{
    std::ostringstream oss;
    oss << checked_ << " laws checked, " << violations_.size()
        << " violation" << (violations_.size() == 1 ? "" : "s");
    for (const CheckViolation &v : violations_)
        oss << "\n  " << v.toString();
    return oss.str();
}

Json
CheckReport::toJson() const
{
    Json j = Json::object();
    j.set("lawsChecked", static_cast<std::uint64_t>(checked_));
    j.set("ok", ok());
    Json arr = Json::array();
    for (const CheckViolation &v : violations_) {
        Json jv = Json::object();
        jv.set("law", v.law);
        jv.set("message", v.message);
        arr.push(std::move(jv));
    }
    j.set("violations", std::move(arr));
    return j;
}

void
CheckReport::orThrow() const
{
    if (ok())
        return;
    throwError(ErrorCode::Internal, "check",
               "invariant audit failed: ", toString());
}

InvariantChecker::InvariantChecker(const SimConfig &config)
    : config_(config),
      costs_(config.overrideHandlerCosts ? config.handlerCosts
                                         : defaultHandlerCosts(config.kind))
{
}

CheckReport
InvariantChecker::check(const Results &r) const
{
    CheckReport rep;
    check(r, rep);
    return rep;
}

void
InvariantChecker::check(const Results &r, CheckReport &rep) const
{
    const MemSystemStats &m = r.memStats();
    const VmStats &vm = r.vmStats();
    const Counter n = r.userInstrs();

    // --- per-class hit/miss conservation ------------------------------
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        const ClassCounters &ic = m.inst[c];
        const ClassCounters &dc = m.data[c];
        rep.check(ic.l2Misses <= ic.l1Misses &&
                      ic.l1Misses <= ic.accesses,
                  "mem.inst-conservation", kClassNames[c],
                  ": accesses=", ic.accesses, " l1Misses=", ic.l1Misses,
                  " l2Misses=", ic.l2Misses);
        rep.check(dc.l2Misses <= dc.l1Misses &&
                      dc.l1Misses <= dc.accesses,
                  "mem.data-conservation", kClassNames[c],
                  ": accesses=", dc.accesses, " l1Misses=", dc.l1Misses,
                  " l2Misses=", dc.l2Misses);
    }

    // --- access-class attribution -------------------------------------
    rep.check(m.instOf(AccessClass::User).accesses == n,
              "mem.user-fetches", "expected one I-fetch per user "
              "instruction (", n, "), got ",
              m.instOf(AccessClass::User).accesses);
    rep.check(m.dataOf(AccessClass::User).accesses <= 2 * n,
              "mem.user-data", "user data line accesses (",
              m.dataOf(AccessClass::User).accesses,
              ") exceed two lines per instruction");
    const Counter handler_instrs =
        vm.uhandlerInstrs + vm.khandlerInstrs + vm.rhandlerInstrs;
    rep.check(m.instOf(AccessClass::HandlerFetch).accesses ==
                  handler_instrs,
              "mem.handler-fetches", "expected ", handler_instrs,
              " handler I-fetches, got ",
              m.instOf(AccessClass::HandlerFetch).accesses);
    rep.check(m.dataOf(AccessClass::HandlerFetch).accesses == 0,
              "mem.handler-data", "handler-fetch class counted ",
              m.dataOf(AccessClass::HandlerFetch).accesses,
              " data accesses");
    for (AccessClass c : {AccessClass::PteUser, AccessClass::PteKernel,
                          AccessClass::PteRoot})
        rep.check(m.instOf(c).accesses == 0, "mem.pte-fetch-side",
                  kClassNames[static_cast<unsigned>(c)], " counted ",
                  m.instOf(c).accesses, " instruction fetches");

    // --- CPI reconstruction from raw counters -------------------------
    const CostModel &cm = r.costs();
    const double dn = static_cast<double>(n);
    const ClassCounters &ui = m.instOf(AccessClass::User);
    const ClassCounters &ud = m.dataOf(AccessClass::User);
    const double mcpi =
        ((ui.l1Misses + ud.l1Misses) * double(cm.l1MissCycles) +
         (ui.l2Misses + ud.l2Misses) * double(cm.l2MissCycles)) / dn;
    rep.check(near(mcpi, r.mcpi()), "cpi.mcpi",
              "raw-counter MCPI ", mcpi, " != breakdown total ",
              r.mcpi());

    Counter vml1 = 0, vml2 = 0;
    for (AccessClass c : {AccessClass::PteUser, AccessClass::PteKernel,
                          AccessClass::PteRoot}) {
        vml1 += m.dataOf(c).l1Misses;
        vml2 += m.dataOf(c).l2Misses;
    }
    vml1 += m.instOf(AccessClass::HandlerFetch).l1Misses;
    vml2 += m.instOf(AccessClass::HandlerFetch).l2Misses;
    const double fsm =
        double(vm.hwWalkCycles) * (1.0 - cm.hwWalkOverlap);
    const double vmcpi =
        (double(handler_instrs) + fsm + vml1 * double(cm.l1MissCycles) +
         vml2 * double(cm.l2MissCycles)) / dn;
    rep.check(near(vmcpi, r.vmcpi()), "cpi.vmcpi",
              "raw-counter VMCPI ", vmcpi, " != breakdown total ",
              r.vmcpi());

    const double icpi =
        double(vm.interrupts) * double(cm.interruptCycles) / dn;
    rep.check(near(icpi, r.interruptCpi()), "cpi.interrupt",
              "raw-counter interrupt CPI ", icpi, " != ",
              r.interruptCpi());
    const double sdcpi = double(vm.shootdownCycles) / dn;
    rep.check(near(sdcpi, r.shootdownCpi()), "cpi.shootdown",
              "raw-counter shootdown CPI ", sdcpi, " != ",
              r.shootdownCpi());
    const double fcpi = double(vm.faultCycles) / dn;
    rep.check(near(fcpi, r.faultCpi()), "cpi.fault",
              "raw-counter fault CPI ", fcpi, " != ", r.faultCpi());
    rep.check(near(1.0 + mcpi + vmcpi + icpi + sdcpi + fcpi,
                   r.totalCpi()),
              "cpi.total", "raw-counter total CPI ",
              1.0 + mcpi + vmcpi + icpi + sdcpi + fcpi, " != ",
              r.totalCpi());

    // --- memory-pressure conservation ---------------------------------
    rep.check(vm.majorFaults + vm.reusedFrames == vm.pagesTouched,
              "pressure.conservation", "majorFaults (", vm.majorFaults,
              ") + reusedFrames (", vm.reusedFrames,
              ") != pagesTouched (", vm.pagesTouched, ")");
    rep.check(vm.writebacks <= vm.evictions, "pressure.writebacks",
              "dirty writebacks (", vm.writebacks,
              ") exceed evictions (", vm.evictions, ")");
    rep.check(vm.evictions <= vm.pagesTouched, "pressure.evictions",
              "evictions (", vm.evictions, ") exceed pages touched (",
              vm.pagesTouched, ")");
    if (config_.physFrames == 0)
        rep.check(vm.pagesTouched == 0 && vm.faultCycles == 0,
                  "pressure.disabled", "no frame budget configured but "
                  "the run touched ", vm.pagesTouched,
                  " pages and spent ", vm.faultCycles, " fault cycles");

    // --- multicore conservation ---------------------------------------
    if (!vm.perCore.empty()) {
        for (const CoreStatsField &f : kCoreStatsFields) {
            if (!f.aggregate)
                continue;
            Counter sum = 0;
            for (const CoreStats &cs : vm.perCore)
                sum += cs.*f.field;
            rep.check(sum == vm.*f.aggregate, "cores.sum", f.key,
                      ": per-core sum ", sum, " != aggregate ",
                      vm.*f.aggregate);
        }
        const Counter peers =
            static_cast<Counter>(vm.perCore.size()) - 1;
        rep.check(vm.shootdownsRecv == vm.shootdownsSent * peers,
                  "cores.shootdown-fanout", "received ",
                  vm.shootdownsRecv, " shootdowns, expected sent (",
                  vm.shootdownsSent, ") x peers (", peers, ")");
        const Counter per_recv =
            Counter{config_.shootdownIpiCycles} +
            Counter{config_.shootdownHandlerCycles};
        rep.check(vm.shootdownCycles == vm.shootdownsRecv * per_recv,
                  "cores.shootdown-cycles", "shootdown cycles ",
                  vm.shootdownCycles, " != receipts (",
                  vm.shootdownsRecv, ") x per-receipt cost (", per_recv,
                  ")");
        // Legacy single-core simulator loops never credit per-core
        // instruction slices, so the partition law applies only to
        // quantum-scheduled (cores > 1) runs.
        if (config_.cores > 1) {
            Counter instr_sum = 0;
            for (const CoreStats &cs : vm.perCore)
                instr_sum += cs.instrs;
            rep.check(instr_sum == n, "cores.instr-sum",
                      "per-core instruction sum ", instr_sum,
                      " != measured instructions ", n);
        }
    }

    // --- Table-4 organization laws ------------------------------------
    checkOrgLaws(config_, costs_, r, rep);
}

void
InvariantChecker::checkEvents(const Results &r,
                              const std::vector<TraceEvent> &events,
                              CheckReport &rep) const
{
    const VmStats &vm = r.vmStats();
    const MemSystemStats &m = r.memStats();

    Counter kinds[kNumEventKinds] = {};
    Counter enters[3] = {};
    Counter l2miss[2] = {};
    bool ordered = true;
    Counter last = 0;
    for (const TraceEvent &e : events) {
        ++kinds[static_cast<unsigned>(e.kind)];
        if (e.kind == EventKind::HandlerEnter)
            ++enters[static_cast<unsigned>(e.level)];
        if (e.kind == EventKind::L2Miss &&
            static_cast<unsigned>(e.level) < 2)
            ++l2miss[static_cast<unsigned>(e.level)];
        if (e.instr < last)
            ordered = false;
        last = e.instr;
    }

    auto match = [&](EventKind k, Counter want, const char *law,
                     const char *what) {
        rep.check(kinds[static_cast<unsigned>(k)] == want, law,
                  "event stream has ", kinds[static_cast<unsigned>(k)],
                  " ", what, " events, counters say ", want);
    };
    match(EventKind::ItlbMiss, vm.itlbMisses, "events.itlb-miss",
          "ItlbMiss");
    match(EventKind::DtlbMiss, vm.dtlbMisses, "events.dtlb-miss",
          "DtlbMiss");
    match(EventKind::Interrupt, vm.interrupts, "events.interrupt",
          "Interrupt");
    match(EventKind::CtxSwitch, vm.ctxSwitches, "events.ctx-switch",
          "CtxSwitch");
    match(EventKind::PteFetch, vm.pteLoads, "events.pte-fetch",
          "PteFetch");
    match(EventKind::HwWalk, vm.hwWalks, "events.hw-walk", "HwWalk");
    match(EventKind::L2TlbHit, vm.l2TlbHits, "events.l2tlb-hit",
          "L2TlbHit");
    match(EventKind::Shootdown, vm.shootdownsRecv, "events.shootdown",
          "Shootdown");
    match(EventKind::MajorFault, vm.majorFaults, "events.major-fault",
          "MajorFault");
    match(EventKind::Eviction, vm.evictions, "events.eviction",
          "Eviction");

    const Counter calls =
        vm.uhandlerCalls + vm.khandlerCalls + vm.rhandlerCalls;
    match(EventKind::HandlerEnter, calls, "events.handler-enter",
          "HandlerEnter");
    rep.check(kinds[static_cast<unsigned>(EventKind::HandlerEnter)] ==
                  kinds[static_cast<unsigned>(EventKind::HandlerExit)],
              "events.handler-balance", "HandlerEnter/HandlerExit "
              "imbalance: ",
              kinds[static_cast<unsigned>(EventKind::HandlerEnter)],
              " vs ",
              kinds[static_cast<unsigned>(EventKind::HandlerExit)]);
    rep.check(enters[0] == vm.uhandlerCalls &&
                  enters[1] == vm.khandlerCalls &&
                  enters[2] == vm.rhandlerCalls,
              "events.handler-levels", "per-level HandlerEnter (",
              enters[0], ", ", enters[1], ", ", enters[2],
              ") vs counters (", vm.uhandlerCalls, ", ",
              vm.khandlerCalls, ", ", vm.rhandlerCalls, ")");

    // L2Miss events fire once per user reference that reached memory:
    // exact on the single-line instruction side, one-or-two lines on
    // the data side.
    rep.check(l2miss[0] == m.instOf(AccessClass::User).l2Misses,
              "events.l2miss-inst", "inst-side L2Miss events ",
              l2miss[0], " != user inst L2 misses ",
              m.instOf(AccessClass::User).l2Misses);
    const Counter dl2 = m.dataOf(AccessClass::User).l2Misses;
    rep.check(l2miss[1] <= dl2 && dl2 <= 2 * l2miss[1],
              "events.l2miss-data", "data-side L2Miss events ",
              l2miss[1], " vs user data L2 line misses ", dl2);

    rep.check(ordered, "events.ordering",
              "event instruction stamps are not nondecreasing");
}

void
InvariantChecker::checkIntervals(
    const Results &r, const std::vector<IntervalRecord> &intervals,
    CheckReport &rep) const
{
    if (!rep.check(!intervals.empty(), "intervals.present",
                   "no intervals recorded"))
        return;

    // Interval stamps are absolute instruction counts (warmup
    // included), so the partition law is contiguity plus span — not
    // a zero start.
    bool contiguous = true;
    Counter instrs = 0;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        if (i && intervals[i].startInstr != intervals[i - 1].endInstr)
            contiguous = false;
        instrs += intervals[i].instrs();
    }
    rep.check(contiguous, "intervals.contiguous",
              "interval boundaries do not partition the run");
    rep.check(intervals.back().endInstr - intervals.front().startInstr ==
                  r.userInstrs(),
              "intervals.span", "interval span ",
              intervals.back().endInstr - intervals.front().startInstr,
              " != measured instructions ", r.userInstrs());
    rep.check(instrs == r.userInstrs(), "intervals.instr-sum",
              "interval instruction sum ", instrs,
              " != run total ", r.userInstrs());

    for (const VmStatsField &f : kVmStatsFields) {
        Counter sum = 0;
        for (const IntervalRecord &rec : intervals)
            sum += rec.results.vmStats().*f.field;
        rep.check(sum == r.vmStats().*f.field, "intervals.vm-sum", f.key,
                  ": interval sum ", sum, " != aggregate ",
                  r.vmStats().*f.field);
    }

    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        for (int side = 0; side < 2; ++side) {
            ClassCounters sum;
            for (const IntervalRecord &rec : intervals) {
                const MemSystemStats &im = rec.results.memStats();
                const ClassCounters &cc =
                    side ? im.data[c] : im.inst[c];
                sum.accesses += cc.accesses;
                sum.l1Misses += cc.l1Misses;
                sum.l2Misses += cc.l2Misses;
            }
            const ClassCounters &agg =
                side ? r.memStats().data[c] : r.memStats().inst[c];
            rep.check(sum.accesses == agg.accesses &&
                          sum.l1Misses == agg.l1Misses &&
                          sum.l2Misses == agg.l2Misses,
                      "intervals.mem-sum", kClassNames[c],
                      side ? " data" : " inst",
                      ": interval sums (", sum.accesses, ", ",
                      sum.l1Misses, ", ", sum.l2Misses,
                      ") != aggregate (", agg.accesses, ", ",
                      agg.l1Misses, ", ", agg.l2Misses, ")");
        }
    }

    double weighted = 0;
    for (const IntervalRecord &rec : intervals)
        if (rec.instrs())
            weighted += rec.results.vmcpi() *
                        static_cast<double>(rec.instrs());
    weighted /= static_cast<double>(r.userInstrs());
    rep.check(near(weighted, r.vmcpi()), "intervals.weighted-vmcpi",
              "instruction-weighted interval VMCPI ", weighted,
              " != aggregate ", r.vmcpi());
}

void
InvariantChecker::checkLatency(const Results &r,
                               const LatencyCollector &lat,
                               CheckReport &rep) const
{
    const VmStats &vm = r.vmStats();
    const Counter misses = vm.itlbMisses + vm.dtlbMisses;
    const Counter missSamples = lat.mergedMissService().count();
    rep.check(missSamples == misses, "latency.miss-episodes",
              "miss-service histogram holds ", missSamples,
              " episodes but the run counted ", misses, " TLB misses");
    const Counter walkSamples = lat.mergedHwWalk().count();
    rep.check(walkSamples == vm.hwWalks, "latency.walk-episodes",
              "hw-walk histogram holds ", walkSamples,
              " episodes but the run counted ", vm.hwWalks, " walks");
    const Counter sdSamples = lat.mergedShootdown().count();
    rep.check(sdSamples == vm.shootdownsRecv, "latency.shootdowns",
              "shootdown histogram holds ", sdSamples,
              " samples but the run counted ", vm.shootdownsRecv,
              " received shootdowns");
    const Counter faultSamples = lat.mergedFault().count();
    rep.check(faultSamples == vm.majorFaults, "latency.faults",
              "fault histogram holds ", faultSamples,
              " samples but the run counted ", vm.majorFaults,
              " major faults");
    // Per-core slices must sum to the merges they were folded into.
    Counter perCore = 0;
    for (unsigned c = 0; c < lat.cores(); ++c)
        perCore += lat.missService(c).count();
    rep.check(perCore == missSamples, "latency.per-core-sum",
              "per-core miss-service counts sum to ", perCore,
              " but the merged histogram holds ", missSamples);
}

CheckReport
InvariantChecker::checkAll(const Results &r,
                           const std::vector<TraceEvent> *events,
                           const std::vector<IntervalRecord> *intervals,
                           const LatencyCollector *latency) const
{
    CheckReport rep;
    check(r, rep);
    if (events)
        checkEvents(r, *events, rep);
    if (intervals)
        checkIntervals(r, *intervals, rep);
    if (latency)
        checkLatency(r, *latency, rep);
    return rep;
}

void
checkTelemetry(const TelemetrySnapshot &snap, bool final,
               CheckReport &rep)
{
    rep.check(snap.done + snap.failed + snap.pending == snap.totalCells,
              "telemetry.cell-accounting",
              "done ", snap.done, " + failed ", snap.failed,
              " + pending ", snap.pending, " != total ",
              snap.totalCells);
    if (final)
        rep.check(snap.pending == 0, "telemetry.final-pending",
                  "final heartbeat still reports ", snap.pending,
                  " pending cells");
    for (std::size_t w = 0; w < snap.workers.size(); ++w) {
        const std::int64_t cell = snap.workers[w].cell;
        rep.check(cell >= -1 &&
                      cell < static_cast<std::int64_t>(snap.totalCells),
                  "telemetry.worker-cell", "worker ", w,
                  " reports cell ", cell, " outside grid of ",
                  snap.totalCells);
    }
}

namespace
{

/**
 * diffResults() minus the cache counters: labels, instruction count,
 * every VmStats counter and every per-core slice.
 */
CheckReport
diffVmSide(const Results &a, const Results &b, const std::string &label_a,
           const std::string &label_b)
{
    CheckReport rep;
    rep.check(a.system() == b.system() && a.workload() == b.workload(),
              "diff.labels", label_a, " ran (", a.system(), ", ",
              a.workload(), "), ", label_b, " ran (", b.system(), ", ",
              b.workload(), ")");
    rep.check(a.userInstrs() == b.userInstrs(), "diff.user-instrs",
              label_a, "=", a.userInstrs(), " ", label_b, "=",
              b.userInstrs());
    for (const VmStatsField &f : kVmStatsFields)
        rep.check(a.vmStats().*f.field == b.vmStats().*f.field,
                  "diff.vm-counter", f.key, ": ", label_a, "=",
                  a.vmStats().*f.field, " ", label_b, "=",
                  b.vmStats().*f.field);
    if (rep.check(a.vmStats().perCore.size() ==
                      b.vmStats().perCore.size(),
                  "diff.core-count", label_a, " tracked ",
                  a.vmStats().perCore.size(), " cores, ", label_b, " ",
                  b.vmStats().perCore.size())) {
        // One law per core (fuzz reports count the laws checked),
        // naming every field that differs.
        for (std::size_t c = 0; c < a.vmStats().perCore.size(); ++c) {
            const CoreStats &ca = a.vmStats().perCore[c];
            const CoreStats &cb = b.vmStats().perCore[c];
            std::ostringstream diff;
            for (const CoreStatsField &f : kCoreStatsFields)
                if (ca.*f.field != cb.*f.field)
                    diff << ' ' << f.key << ": " << label_a << "="
                         << ca.*f.field << " " << label_b << "="
                         << cb.*f.field << ';';
            const std::string fields = diff.str();
            rep.check(fields.empty(), "diff.core-counter", "core ", c,
                      ":", fields);
        }
    }
    return rep;
}

} // anonymous namespace

CheckReport
diffResults(const Results &a, const Results &b,
            const std::string &label_a, const std::string &label_b)
{
    CheckReport rep = diffVmSide(a, b, label_a, label_b);
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        for (int side = 0; side < 2; ++side) {
            const ClassCounters &ca =
                side ? a.memStats().data[c] : a.memStats().inst[c];
            const ClassCounters &cb =
                side ? b.memStats().data[c] : b.memStats().inst[c];
            rep.check(ca.accesses == cb.accesses &&
                          ca.l1Misses == cb.l1Misses &&
                          ca.l2Misses == cb.l2Misses,
                      "diff.mem-counter", kClassNames[c],
                      side ? " data" : " inst", ": ", label_a, "=(",
                      ca.accesses, ", ", ca.l1Misses, ", ", ca.l2Misses,
                      ") ", label_b, "=(", cb.accesses, ", ",
                      cb.l1Misses, ", ", cb.l2Misses, ")");
        }
    }
    return rep;
}

bool
cacheBlindVm(SystemKind kind)
{
    return kind != SystemKind::Notlb && kind != SystemKind::Spur;
}

CheckReport
checkCacheIndependence(const std::vector<Results> &cells,
                       const std::vector<std::string> &labels)
{
    CheckReport rep;
    rep.check(cells.size() == labels.size(), "cache-independence.labels",
              cells.size(), " cells but ", labels.size(), " labels");
    for (std::size_t i = 1; i < cells.size() && i < labels.size(); ++i)
        rep.mergePrefixed(diffVmSide(cells[0], cells[i], labels[0],
                                     labels[i]),
                          "cache-independence.");
    return rep;
}

bool
stackInclusionApplies(const SimConfig &c)
{
    const bool physicalWalks = c.kind == SystemKind::Intel ||
                               c.kind == SystemKind::Parisc ||
                               c.kind == SystemKind::HwInverted;
    return physicalWalks && c.cores == 1 && c.physFrames == 0 &&
           c.tlbAsidBits == 0 && c.l2TlbEntries == 0 &&
           c.ctxSwitchInterval == 0 && c.tlbRepl == TlbRepl::LRU &&
           c.tlbAssoc == 0;
}

CheckReport
checkStackInclusion(const std::vector<SimConfig> &configs,
                    const std::vector<Results> &cells)
{
    CheckReport rep;
    if (!rep.check(configs.size() == cells.size(), "stack-inclusion.cells",
                   configs.size(), " configs but ", cells.size(),
                   " cells"))
        return rep;
    for (std::size_t i = 0; i < configs.size(); ++i)
        rep.check(stackInclusionApplies(configs[i]),
                  "stack-inclusion.config", "cell ", i, " (",
                  configs[i].toString(), ") is outside the law: it needs ",
                  "INTEL, PA-RISC or HW-INVERTED on one core with LRU ",
                  "fully associative TLBs and no budget, ASIDs, L2 TLB ",
                  "or context switches");
    for (std::size_t i = 1; i < cells.size(); ++i) {
        const SimConfig &small = configs[i - 1];
        const SimConfig &large = configs[i];
        if (!rep.check(small.tlbEntries < large.tlbEntries,
                       "stack-inclusion.order", "tlbEntries ",
                       small.tlbEntries, " then ", large.tlbEntries,
                       " (sizes must increase)"))
            continue;
        const VmStats &a = cells[i - 1].vmStats();
        const VmStats &b = cells[i].vmStats();
        rep.check(b.itlbMisses <= a.itlbMisses, "stack-inclusion.itlb",
                  large.tlbEntries, "-entry I-TLB missed ", b.itlbMisses,
                  " times, ", small.tlbEntries, "-entry only ",
                  a.itlbMisses);
        rep.check(b.dtlbMisses <= a.dtlbMisses, "stack-inclusion.dtlb",
                  large.tlbEntries, "-entry D-TLB missed ", b.dtlbMisses,
                  " times, ", small.tlbEntries, "-entry only ",
                  a.dtlbMisses);
    }
    return rep;
}

CheckReport
checkExecutedConservation(Counter executed, const MemSystemStats &mem)
{
    CheckReport rep;
    rep.check(mem.instOf(AccessClass::User).accesses == executed,
              "cancel.executed", "simulator retired ", executed,
              " instructions but the memory system fetched ",
              mem.instOf(AccessClass::User).accesses);
    rep.check(mem.dataOf(AccessClass::User).accesses <= 2 * executed,
              "cancel.data", "user data line accesses (",
              mem.dataOf(AccessClass::User).accesses,
              ") exceed two lines per retired instruction");
    return rep;
}

void
checkLiveTlb(const VmSystem &vm, Counter instrs, CheckReport &rep)
{
    if (!vm.itlb() || !vm.dtlb())
        return;
    // Every instruction probes exactly one core's I-TLB, so the laws
    // hold on the sums across cores (which, on one core, are the
    // single TLB's own counters).
    Counter iprobes = 0, imisses = 0, dmisses = 0;
    std::string why;
    for (CoreId c = 0; c < vm.cores(); ++c) {
        const Tlb *itlb = vm.itlb(c);
        const Tlb *dtlb = vm.dtlb(c);
        if (!itlb || !dtlb)
            return;
        iprobes += itlb->accesses();
        imisses += itlb->misses();
        dmisses += dtlb->misses();
        // The fully-associative slot index must agree with the slot
        // arrays, and keep its probe runs unbroken, after any mix of
        // fills, invalidates (backward-shift erases) and
        // context-switch evictions.
        rep.check(itlb->auditIndex(&why), "tlb.index-audit",
                  "core ", c, " I-TLB index inconsistent: ", why);
        rep.check(dtlb->auditIndex(&why), "tlb.index-audit",
                  "core ", c, " D-TLB index inconsistent: ", why);
        if (const Tlb *l2 = vm.l2tlb(c))
            rep.check(l2->auditIndex(&why), "tlb.index-audit",
                      "core ", c, " L2 TLB index inconsistent: ", why);
    }
    rep.check(iprobes == instrs, "tlb.itlb-probes",
              "I-TLBs saw ", iprobes, " probes for ", instrs,
              " instructions");
    rep.check(imisses == vm.vmStats().itlbMisses,
              "tlb.itlb-misses", "I-TLBs counted ", imisses,
              " misses, VM stats say ", vm.vmStats().itlbMisses);
    // Nested walks probe the D-TLB for page-table pages without
    // counting a user-level miss, so the TLB's own counter bounds
    // the VM's from above.
    rep.check(dmisses >= vm.vmStats().dtlbMisses,
              "tlb.dtlb-misses", "D-TLBs counted ", dmisses,
              " misses, below the VM's ", vm.vmStats().dtlbMisses);
}

void
checkLivePhysMem(const PhysMem &pm, CheckReport &rep)
{
    std::string why;
    rep.check(pm.auditFrames(&why), "physmem.frames",
              "frame assignment inconsistent: ", why);
}

} // namespace vmsim
