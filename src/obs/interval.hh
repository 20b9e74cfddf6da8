/**
 * @file
 * Interval statistics: a time series of MCPI/VMCPI components sampled
 * every N user instructions, so VM cost can be watched evolving across
 * context-switch quanta instead of only as an end-of-run aggregate.
 *
 * The sampler snapshots the simulation's raw counters (MemSystemStats,
 * VmStats) at interval boundaries and turns each delta into a regular
 * Results object over exactly that interval's instructions — the same
 * cost formulas as the aggregate, so the series reconciles: the
 * instruction-weighted mean of the per-interval VMCPI equals the
 * end-of-run VMCPI to floating-point precision.
 */

#ifndef VMSIM_OBS_INTERVAL_HH
#define VMSIM_OBS_INTERVAL_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/results.hh"
#include "obs/latency.hh"
#include "os/vm_system.hh"

namespace vmsim
{

/** One closed interval: its bounds and the Results over its delta. */
struct IntervalRecord
{
    Counter startInstr = 0;
    Counter endInstr = 0;
    Results results; ///< userInstrs() == endInstr - startInstr

    /**
     * p99 of the TLB-miss service latency over this interval alone
     * (simulated cycles); 0 when no LatencyCollector is attached or
     * the interval had no misses.
     */
    double missP99 = 0;

    Counter instrs() const { return endInstr - startInstr; }
};

/** Spread of the per-interval VMCPI across one run (for sweep dumps). */
struct IntervalSummary
{
    Counter intervals = 0;
    double meanVmcpi = 0;
    double stddevVmcpi = 0;
    double minVmcpi = 0;
    double maxVmcpi = 0;
};

/**
 * Snapshots Results deltas every N instructions. Attach to a System
 * (or a Simulator) before running; the driver calls tick() at each
 * instruction boundary (or only at boundaries where untilClose() says
 * it can act) and finish() at the end of the run.
 */
class IntervalSampler
{
  public:
    /** @param interval_instrs instructions per interval, > 0. */
    explicit IntervalSampler(Counter interval_instrs);

    /**
     * Adopt the run's cost model and display labels. Called by
     * System::run() at the start of the measured region; resets any
     * in-flight interval but keeps completed ones (repeated runs
     * append).
     */
    void configure(const CostModel &costs, std::string system,
                   std::string workload);

    /**
     * Also sample the per-interval p99 of the miss-service latency
     * from @p lat (merged over cores, delta'd per interval via
     * Histogram::subtract). Not owned; nullptr (the default) leaves
     * IntervalRecord::missP99 at 0. Wired automatically by
     * System::run() when both a sampler and a collector are attached.
     */
    void attachLatency(const LatencyCollector *lat) { lat_ = lat; }

    /**
     * Instruction boundary: @p instr is about to execute. Closes the
     * current interval when @p instr crosses its end.
     */
    void
    tick(Counter instr, const VmSystem &vm)
    {
        if (!started_) {
            begin(instr, vm);
            return;
        }
        if (instr - start_ >= interval_)
            close(instr, vm);
    }

    /**
     * Instructions from boundary @p instr (about to be ticked) to the
     * next boundary whose tick closes an interval. A batched driver
     * splits its blocks here and ticks only at block heads — the
     * ticks in between would be no-ops.
     */
    Counter
    untilClose(Counter instr) const
    {
        if (!started_ || instr - start_ >= interval_)
            return interval_;
        return start_ + interval_ - instr;
    }

    /** End of run at @p instr: closes the final partial interval. */
    void finish(Counter instr, const VmSystem &vm);

    Counter interval() const { return interval_; }
    const std::vector<IntervalRecord> &intervals() const
    {
        return intervals_;
    }

    /**
     * Instruction-weighted mean of @p metric across the series — the
     * reconstruction that reproduces the aggregate: passing
     * [](const Results &r) { return r.vmcpi(); } returns the
     * end-of-run VMCPI to ~1e-12.
     */
    double weightedMetric(
        const std::function<double(const Results &)> &metric) const;

    /** Discard all intervals and in-flight state. */
    void reset();

    /** Emit the series as CSV (header + one row per interval). */
    void writeCsv(std::ostream &os) const;

  private:
    void begin(Counter instr, const VmSystem &vm);
    void close(Counter instr, const VmSystem &vm);

    Counter interval_;
    bool started_ = false;
    Counter start_ = 0;
    const LatencyCollector *lat_ = nullptr;
    Histogram prevMiss_ = LatencyCollector::cycleHistogram();
    MemSystemStats prevMem_{};
    VmStats prevVm_{};
    CostModel costs_{};
    std::string system_ = "?";
    std::string workload_ = "?";
    std::vector<IntervalRecord> intervals_;
};

/** Summarize the per-interval VMCPI spread of @p intervals. */
IntervalSummary summarizeIntervals(
    const std::vector<IntervalRecord> &intervals);

/** The series as a JSON array (one compact object per interval). */
Json intervalsToJson(const std::vector<IntervalRecord> &intervals);

} // namespace vmsim

#endif // VMSIM_OBS_INTERVAL_HH
