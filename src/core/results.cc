#include "core/results.hh"

#include <iomanip>

#include "base/logging.hh"

namespace vmsim
{

std::vector<std::pair<std::string, double>>
VmcpiBreakdown::components() const
{
    return {
        {"uhandler", uhandler},     {"upte-L2", upteL2},
        {"upte-MEM", upteMem},      {"khandler", khandler},
        {"kpte-L2", kpteL2},        {"kpte-MEM", kpteMem},
        {"rhandler", rhandler},     {"rpte-L2", rpteL2},
        {"rpte-MEM", rpteMem},      {"handler-L2", handlerL2},
        {"handler-MEM", handlerMem},
    };
}

Results::Results(std::string system, std::string workload,
                 Counter user_instrs, const MemSystemStats &mem,
                 const VmStats &vm, const CostModel &costs)
    : system_(std::move(system)), workload_(std::move(workload)),
      userInstrs_(user_instrs), mem_(mem), vm_(vm), costs_(costs)
{
    panicIf(user_instrs == 0, "Results over zero instructions");
}

double
Results::perInstr(Counter n) const
{
    return static_cast<double>(n) / static_cast<double>(userInstrs_);
}

McpiBreakdown
Results::mcpiBreakdown() const
{
    const auto &ui = mem_.instOf(AccessClass::User);
    const auto &ud = mem_.dataOf(AccessClass::User);
    McpiBreakdown b;
    b.l1iMiss = perInstr(ui.l1Misses) * costs_.l1MissCycles;
    b.l1dMiss = perInstr(ud.l1Misses) * costs_.l1MissCycles;
    b.l2iMiss = perInstr(ui.l2Misses) * costs_.l2MissCycles;
    b.l2dMiss = perInstr(ud.l2Misses) * costs_.l2MissCycles;
    return b;
}

VmcpiBreakdown
Results::vmcpiBreakdown() const
{
    const auto &hf = mem_.instOf(AccessClass::HandlerFetch);
    const auto &pu = mem_.dataOf(AccessClass::PteUser);
    const auto &pk = mem_.dataOf(AccessClass::PteKernel);
    const auto &pr = mem_.dataOf(AccessClass::PteRoot);

    VmcpiBreakdown b;
    // Handler base cost: one cycle per handler instruction on the
    // 1-CPI core, plus the FSM's sequential work for hardware walkers
    // (the INTEL "7 cycles" of Table 4), less any fraction overlapped
    // with independent execution (Pentium Pro style).
    double fsm_cycles = static_cast<double>(vm_.hwWalkCycles) *
                        (1.0 - costs_.hwWalkOverlap);
    b.uhandler = (static_cast<double>(vm_.uhandlerInstrs) + fsm_cycles) /
                 static_cast<double>(userInstrs_);
    b.khandler = perInstr(vm_.khandlerInstrs);
    b.rhandler = perInstr(vm_.rhandlerInstrs);

    b.upteL2 = perInstr(pu.l1Misses) * costs_.l1MissCycles;
    b.upteMem = perInstr(pu.l2Misses) * costs_.l2MissCycles;
    b.kpteL2 = perInstr(pk.l1Misses) * costs_.l1MissCycles;
    b.kpteMem = perInstr(pk.l2Misses) * costs_.l2MissCycles;
    b.rpteL2 = perInstr(pr.l1Misses) * costs_.l1MissCycles;
    b.rpteMem = perInstr(pr.l2Misses) * costs_.l2MissCycles;

    b.handlerL2 = perInstr(hf.l1Misses) * costs_.l1MissCycles;
    b.handlerMem = perInstr(hf.l2Misses) * costs_.l2MissCycles;
    return b;
}

double
Results::interruptCpi() const
{
    return interruptCpiAt(costs_.interruptCycles);
}

double
Results::interruptCpiAt(Cycles interrupt_cycles) const
{
    return perInstr(vm_.interrupts) * static_cast<double>(interrupt_cycles);
}

double
Results::shootdownCpi() const
{
    return perInstr(vm_.shootdownCycles);
}

double
Results::faultCpi() const
{
    return perInstr(vm_.faultCycles);
}

Json
Results::toJson() const
{
    Json j = Json::object();
    j.set("system", system_);
    j.set("workload", workload_);
    j.set("user_instructions", userInstrs_);

    Json events = Json::object();
    events.set("interrupts", vm_.interrupts);
    events.set("uhandler_calls", vm_.uhandlerCalls);
    events.set("khandler_calls", vm_.khandlerCalls);
    events.set("rhandler_calls", vm_.rhandlerCalls);
    events.set("hw_walks", vm_.hwWalks);
    events.set("pte_loads", vm_.pteLoads);
    events.set("itlb_misses", vm_.itlbMisses);
    events.set("dtlb_misses", vm_.dtlbMisses);
    events.set("ctx_switches", vm_.ctxSwitches);
    events.set("shootdowns_sent", vm_.shootdownsSent);
    events.set("shootdowns_recv", vm_.shootdownsRecv);
    events.set("shootdown_cycles", vm_.shootdownCycles);
    // Pressure counters only appear under a frame budget, so the
    // no-budget JSON stays byte-identical to the pre-pressure format.
    if (vm_.pagesTouched != 0) {
        events.set("pages_touched", vm_.pagesTouched);
        events.set("major_faults", vm_.majorFaults);
        events.set("reused_frames", vm_.reusedFrames);
        events.set("evictions", vm_.evictions);
        events.set("writebacks", vm_.writebacks);
        events.set("fault_cycles", vm_.faultCycles);
    }
    j.set("events", std::move(events));

    if (vm_.perCore.size() > 1) {
        Json cores_j = Json::array();
        for (const CoreStats &cs : vm_.perCore) {
            Json cj = Json::object();
            cj.set("instrs", cs.instrs);
            cj.set("itlb_misses", cs.itlbMisses);
            cj.set("dtlb_misses", cs.dtlbMisses);
            cj.set("ctx_switches", cs.ctxSwitches);
            cj.set("shootdowns_sent", cs.shootdownsSent);
            cj.set("shootdowns_recv", cs.shootdownsRecv);
            if (vm_.pagesTouched != 0)
                cj.set("major_faults", cs.majorFaults);
            cores_j.push(std::move(cj));
        }
        j.set("per_core", std::move(cores_j));
        j.set("shootdown_cpi", shootdownCpi());
    }
    if (vm_.pagesTouched != 0)
        j.set("fault_cpi", faultCpi());

    McpiBreakdown m = mcpiBreakdown();
    Json mcpi_j = Json::object();
    mcpi_j.set("L1i-miss", m.l1iMiss);
    mcpi_j.set("L1d-miss", m.l1dMiss);
    mcpi_j.set("L2i-miss", m.l2iMiss);
    mcpi_j.set("L2d-miss", m.l2dMiss);
    mcpi_j.set("total", m.total());
    j.set("mcpi", std::move(mcpi_j));

    Json vmcpi_j = Json::object();
    VmcpiBreakdown v = vmcpiBreakdown();
    for (const auto &[tag, value] : v.components())
        vmcpi_j.set(tag, value);
    vmcpi_j.set("total", v.total());
    j.set("vmcpi", std::move(vmcpi_j));

    Json int_j = Json::object();
    int_j.set("cycles_per_interrupt", costs_.interruptCycles);
    int_j.set("cpi", interruptCpi());
    int_j.set("cpi_at_10", interruptCpiAt(10));
    int_j.set("cpi_at_50", interruptCpiAt(50));
    int_j.set("cpi_at_200", interruptCpiAt(200));
    j.set("interrupt", std::move(int_j));

    j.set("total_cpi", totalCpi());
    return j;
}

namespace
{

/** Journal field order for one ClassCounters triple. */
Json
countersToJson(const ClassCounters &c)
{
    Json j = Json::array();
    j.push(c.accesses);
    j.push(c.l1Misses);
    j.push(c.l2Misses);
    return j;
}

Status
countersFromJson(const Json &j, ClassCounters &c)
{
    if (!j.isArray() || j.size() != 3)
        return Status(makeError(ErrorCode::ParseError, "results",
                                "class counters must be a 3-element "
                                "array"));
    for (std::size_t i = 0; i < 3; ++i)
        if (!j.at(i).isNumber())
            return Status(makeError(ErrorCode::ParseError, "results",
                                    "class counter ", i,
                                    " is not a number"));
    c.accesses = j.at(0).asUint();
    c.l1Misses = j.at(1).asUint();
    c.l2Misses = j.at(2).asUint();
    return Status();
}

} // anonymous namespace

Json
Results::serialize() const
{
    Json j = Json::object();
    j.set("system", system_);
    j.set("workload", workload_);
    j.set("user_instrs", userInstrs_);

    Json inst = Json::array(), data = Json::array();
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        inst.push(countersToJson(mem_.inst[c]));
        data.push(countersToJson(mem_.data[c]));
    }
    Json mem = Json::object();
    mem.set("inst", std::move(inst));
    mem.set("data", std::move(data));
    j.set("mem", std::move(mem));

    Json vm = Json::object();
    for (const VmStatsField &f : kVmStatsFields)
        vm.set(f.key, vm_.*f.field);
    if (!vm_.perCore.empty()) {
        Json cores_j = Json::array();
        for (const CoreStats &cs : vm_.perCore) {
            Json core_j = Json::array();
            for (const CoreStatsField &f : kCoreStatsFields)
                core_j.push(cs.*f.field);
            cores_j.push(std::move(core_j));
        }
        vm.set("per_core", std::move(cores_j));
    }
    j.set("vm", std::move(vm));
    return j;
}

Expected<Results>
Results::deserialize(const Json &j, const CostModel &costs,
                     bool require_per_core)
{
    auto bad = [](auto &&...msg) {
        return makeError(ErrorCode::ParseError, "results",
                         std::forward<decltype(msg)>(msg)...);
    };
    const Json *system = j.find("system");
    const Json *workload = j.find("workload");
    const Json *instrs = j.find("user_instrs");
    if (!system || !system->isString() || !workload ||
        !workload->isString() || !instrs || !instrs->isNumber())
        return bad("missing or mistyped system/workload/user_instrs");

    MemSystemStats mem{};
    const Json *memj = j.find("mem");
    if (!memj)
        return bad("missing 'mem'");
    const Json *inst = memj->find("inst");
    const Json *data = memj->find("data");
    if (!inst || !inst->isArray() || inst->size() != kNumAccessClasses ||
        !data || !data->isArray() || data->size() != kNumAccessClasses)
        return bad("'mem' must hold inst/data arrays of ",
                   kNumAccessClasses, " access classes");
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        if (Status s = countersFromJson(inst->at(c), mem.inst[c]);
            !s.ok())
            return s.error();
        if (Status s = countersFromJson(data->at(c), mem.data[c]);
            !s.ok())
            return s.error();
    }

    VmStats vm{};
    const Json *vmj = j.find("vm");
    if (!vmj || !vmj->isObject())
        return bad("missing 'vm'");
    for (const VmStatsField &f : kVmStatsFields) {
        const Json *v = vmj->find(f.key);
        if (!v || !v->isNumber())
            return bad("missing or mistyped vm counter '", f.key, "'");
        vm.*f.field = v->asUint();
    }
    // Optional only for pre-multicore journals, which have no
    // per-core slices.
    if (const Json *cores_j = vmj->find("per_core")) {
        if (!cores_j->isArray() || cores_j->size() == 0)
            return bad("'per_core' must be a nonempty array");
        vm.perCore.resize(cores_j->size());
        constexpr std::size_t kSlots = std::size(kCoreStatsFields);
        for (std::size_t c = 0; c < cores_j->size(); ++c) {
            const Json &core_j = cores_j->at(c);
            if (!core_j.isArray() || core_j.size() != kSlots)
                return bad("per-core counters must be a ", kSlots,
                           "-element array");
            for (std::size_t i = 0; i < kSlots; ++i) {
                if (!core_j.at(i).isNumber())
                    return bad("per-core counter ", i,
                               " is not a number");
                vm.perCore[c].*kCoreStatsFields[i].field =
                    core_j.at(i).asUint();
            }
        }
        for (const CoreStatsField &f : kCoreStatsFields) {
            if (!f.aggregate)
                continue;
            Counter sum = 0;
            for (const CoreStats &cs : vm.perCore)
                sum += cs.*f.field;
            if (sum != vm.*f.aggregate)
                return bad("per-core ", f.key, " sum to ", sum,
                           ", not the aggregate ", vm.*f.aggregate);
        }
    } else if (require_per_core) {
        return bad("missing 'vm.per_core'");
    }

    return Results(system->asString(), workload->asString(),
                   instrs->asUint(), mem, vm, costs);
}

void
Results::printSummary(std::ostream &os) const
{
    auto flags = os.flags();
    os << system_ << " / " << workload_ << " (" << userInstrs_
       << " user instructions)\n";
    os << std::fixed << std::setprecision(5);

    McpiBreakdown m = mcpiBreakdown();
    os << "  MCPI   = " << m.total() << "  (L1i " << m.l1iMiss << ", L1d "
       << m.l1dMiss << ", L2i " << m.l2iMiss << ", L2d " << m.l2dMiss
       << ")\n";

    VmcpiBreakdown v = vmcpiBreakdown();
    os << "  VMCPI  = " << v.total() << '\n';
    for (const auto &[tag, value] : v.components()) {
        if (value > 0)
            os << "    " << std::left << std::setw(12) << tag
               << std::right << ' ' << value << '\n';
    }
    os << "  intCPI = " << interruptCpi() << "  (" << vm_.interrupts
       << " interrupts @ " << costs_.interruptCycles << " cycles)\n";
    if (vm_.shootdownCycles > 0)
        os << "  sdCPI  = " << shootdownCpi() << "  ("
           << vm_.shootdownsRecv << " shootdowns received, "
           << vm_.shootdownCycles << " cycles)\n";
    if (vm_.faultCycles > 0)
        os << "  pfCPI  = " << faultCpi() << "  (" << vm_.majorFaults
           << " major faults, " << vm_.writebacks << " writebacks, "
           << vm_.faultCycles << " cycles)\n";
    os << "  CPI    = " << totalCpi() << '\n';
    os.flags(flags);
}

} // namespace vmsim
