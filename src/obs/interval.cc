#include "obs/interval.hh"

#include "base/logging.hh"
#include "base/stats.hh"

namespace vmsim
{

namespace
{

ClassCounters
diffClass(const ClassCounters &cur, const ClassCounters &prev)
{
    ClassCounters d;
    d.accesses = cur.accesses - prev.accesses;
    d.l1Misses = cur.l1Misses - prev.l1Misses;
    d.l2Misses = cur.l2Misses - prev.l2Misses;
    return d;
}

MemSystemStats
diffMem(const MemSystemStats &cur, const MemSystemStats &prev)
{
    MemSystemStats d;
    for (unsigned c = 0; c < kNumAccessClasses; ++c) {
        d.inst[c] = diffClass(cur.inst[c], prev.inst[c]);
        d.data[c] = diffClass(cur.data[c], prev.data[c]);
    }
    return d;
}

VmStats
diffVm(const VmStats &cur, const VmStats &prev)
{
    VmStats d;
    for (const VmStatsField &f : kVmStatsFields)
        d.*f.field = cur.*f.field - prev.*f.field;
    if (cur.perCore.size() == prev.perCore.size()) {
        d.perCore.resize(cur.perCore.size());
        for (std::size_t c = 0; c < cur.perCore.size(); ++c)
            for (const CoreStatsField &f : kCoreStatsFields)
                d.perCore[c].*f.field =
                    cur.perCore[c].*f.field - prev.perCore[c].*f.field;
    }
    return d;
}

} // anonymous namespace

IntervalSampler::IntervalSampler(Counter interval_instrs)
    : interval_(interval_instrs)
{
    fatalIf(interval_ == 0, "IntervalSampler interval must be positive");
}

void
IntervalSampler::configure(const CostModel &costs, std::string system,
                           std::string workload)
{
    costs_ = costs;
    system_ = std::move(system);
    workload_ = std::move(workload);
    started_ = false;
}

void
IntervalSampler::begin(Counter instr, const VmSystem &vm)
{
    started_ = true;
    start_ = instr;
    prevMem_ = vm.mem().stats();
    prevVm_ = vm.vmStats();
    if (lat_)
        prevMiss_ = lat_->mergedMissService();
}

void
IntervalSampler::close(Counter instr, const VmSystem &vm)
{
    const MemSystemStats &mem = vm.mem().stats();
    const VmStats &vms = vm.vmStats();

    IntervalRecord rec;
    rec.startInstr = start_;
    rec.endInstr = instr;
    rec.results = Results(system_, workload_, instr - start_,
                          diffMem(mem, prevMem_), diffVm(vms, prevVm_),
                          costs_);
    if (lat_) {
        Histogram cur = lat_->mergedMissService();
        Histogram delta = cur;
        delta.subtract(prevMiss_);
        rec.missP99 = delta.percentile(0.99);
        prevMiss_ = std::move(cur);
    }
    intervals_.push_back(std::move(rec));

    start_ = instr;
    prevMem_ = mem;
    prevVm_ = vms;
}

void
IntervalSampler::finish(Counter instr, const VmSystem &vm)
{
    if (started_ && instr > start_)
        close(instr, vm);
    started_ = false;
}

double
IntervalSampler::weightedMetric(
    const std::function<double(const Results &)> &metric) const
{
    double weighted = 0;
    Counter total = 0;
    for (const IntervalRecord &rec : intervals_) {
        weighted +=
            metric(rec.results) * static_cast<double>(rec.instrs());
        total += rec.instrs();
    }
    return total ? weighted / static_cast<double>(total) : 0.0;
}

void
IntervalSampler::reset()
{
    intervals_.clear();
    started_ = false;
}

void
IntervalSampler::writeCsv(std::ostream &os) const
{
    os << "start,end,instrs,mcpi,vmcpi,interrupt_cpi,total_cpi,"
          "l1i_miss,l1d_miss,l2i_miss,l2d_miss";
    if (!intervals_.empty())
        for (const auto &[tag, value] :
             intervals_.front().results.vmcpiBreakdown().components())
            os << ',' << tag;
    os << ",itlb_misses,dtlb_misses,interrupts,pte_loads,ctx_switches,"
          "l2tlb_hits,hw_walks,miss_p99\n";

    for (const IntervalRecord &rec : intervals_) {
        const Results &r = rec.results;
        McpiBreakdown m = r.mcpiBreakdown();
        os << rec.startInstr << ',' << rec.endInstr << ','
           << rec.instrs() << ',' << r.mcpi() << ',' << r.vmcpi() << ','
           << r.interruptCpi() << ',' << r.totalCpi() << ',' << m.l1iMiss
           << ',' << m.l1dMiss << ',' << m.l2iMiss << ',' << m.l2dMiss;
        for (const auto &[tag, value] : r.vmcpiBreakdown().components())
            os << ',' << value;
        const VmStats &s = r.vmStats();
        os << ',' << s.itlbMisses << ',' << s.dtlbMisses << ','
           << s.interrupts << ',' << s.pteLoads << ',' << s.ctxSwitches
           << ',' << s.l2TlbHits << ',' << s.hwWalks << ','
           << rec.missP99 << '\n';
    }
}

IntervalSummary
summarizeIntervals(const std::vector<IntervalRecord> &intervals)
{
    Distribution dist;
    for (const IntervalRecord &rec : intervals)
        dist.sample(rec.results.vmcpi());
    IntervalSummary s;
    s.intervals = dist.count();
    s.meanVmcpi = dist.mean();
    s.stddevVmcpi = dist.stddev();
    s.minVmcpi = dist.min();
    s.maxVmcpi = dist.max();
    return s;
}

Json
intervalsToJson(const std::vector<IntervalRecord> &intervals)
{
    Json arr = Json::array();
    for (const IntervalRecord &rec : intervals) {
        const Results &r = rec.results;
        Json row = Json::object();
        row.set("start", rec.startInstr);
        row.set("end", rec.endInstr);
        row.set("mcpi", r.mcpi());
        row.set("vmcpi", r.vmcpi());
        row.set("interrupt_cpi", r.interruptCpi());
        row.set("total_cpi", r.totalCpi());
        row.set("miss_p99", rec.missP99);
        arr.push(std::move(row));
    }
    return arr;
}

} // namespace vmsim
