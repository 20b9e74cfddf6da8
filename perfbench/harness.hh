/**
 * @file
 * Shared pieces of the bench_perf harness: the four named workloads
 * (sweep grids plus how their cells run), the per-cell digest that
 * pins simulated output, and the metric record every leg reports.
 *
 * The harness drives vmsim only through its public entry points —
 * SweepSpec, CellRunner, TraceCache, System and the per-module classes
 * — so what it times is what users of those entry points pay.
 */

#ifndef VMSIM_PERFBENCH_HARNESS_HH
#define VMSIM_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vmsim.hh"

namespace perf
{

using namespace vmsim;

/** One named benchmark workload: a sweep grid plus how its cells run. */
struct PerfWorkload
{
    std::string name;
    SweepSpec spec;

    /** Replay shared recordings from a pre-warmed TraceCache; false
     *  generates every cell's trace (the vmsim_cli path). */
    bool traceCache = true;

    /** Run cells as `--check --interval=10000` users do: in-cell
     *  invariant audit, latency collector and interval sampler. */
    bool observed = false;
};

/** Interval length the observed workload samples at. */
constexpr Counter kObservedInterval = 10'000;

/** @name The mc_pressure machine (also the tlb.churn leg's geometry). @{ */
constexpr unsigned kMcCores = 4;
constexpr Counter kMcQuantum = 10'000;
constexpr Counter kMcCtxSwitch = 25'000;
constexpr unsigned kMcTlbEntries = 32;
constexpr unsigned kMcTlbProtected = 8;
constexpr unsigned kMcL2TlbEntries = 512;
/** @} */

/** The workload names, in the order `--workload=all` runs them. */
const std::vector<std::string> &perfWorkloadNames();

/**
 * Build workload @p name for @p seed. @p smoke shrinks every grid to
 * three organizations, one geometry and 20K instructions per cell.
 * fatal() on an unknown name.
 */
PerfWorkload makePerfWorkload(const std::string &name, std::uint64_t seed,
                              bool smoke);

/** Records each cell executes: measured instructions plus warmup. */
Counter executedPerCell(const SweepSpec &spec);

/** Stable human-readable id of cell @p flat, e.g. "ULTRIX/gcc/16K/32-64". */
std::string cellLabel(const SweepSpec &spec, std::size_t flat);

/**
 * FNV-1a over Results::serialize() (every raw counter) and
 * Results::toJson() (the derived CPIs, which also depend on the cost
 * model that serialize() omits): pins simulated output.
 */
std::uint64_t resultsDigest(const Results &r);

/** FNV-1a folding of @p digests in order (one number per grid). */
std::uint64_t gridDigest(const std::vector<std::uint64_t> &digests);

std::string hex64(std::uint64_t v);

/** Seconds on the steady clock (arbitrary epoch). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p v (by value: sorts a copy); 0 when empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile of @p v: the smallest sample with at least
 * @p p of the samples at or below it.
 */
double percentile(std::vector<double> v, double p);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * A CellRunner plus the state it borrows. CellRunner keeps references
 * to the spec, the observability options and the fault spec, so all of
 * them live here, beside it, for as long as it runs cells.
 */
class CellBench
{
  public:
    explicit CellBench(const PerfWorkload &w);

    /**
     * What a sweep pays before its first cell: record every workload's
     * trace into a fresh TraceCache (acquire() pre-warms it) and run
     * one throwaway cell.
     */
    void setup();

    CellExecution run(std::size_t flat) const { return runner_->run(flat); }

    /** The pre-warmed cache, or nullptr when the workload generates. */
    TraceCache *cache() const { return cache_.get(); }

  private:
    const PerfWorkload &w_;
    ObsOptions obs_;
    FaultSpec faults_;
    std::unique_ptr<TraceCache> cache_;
    std::unique_ptr<CellRunner> runner_;
};

/**
 * Audit cell @p flat after its timed region: its outcome, the counter
 * laws of InvariantChecker::check, and its digest against @p expected
 * when given. Sets @p digest; returns why the cell failed, or "".
 */
std::string auditCell(const SweepSpec &spec, std::size_t flat,
                      const CellExecution &ex,
                      const std::map<std::string, std::string> *expected,
                      std::uint64_t &digest);

/** What one run measured and checked. */
struct RunReport
{
    std::vector<Metric> metrics;
    std::size_t attempted = 0;          ///< cell executions
    std::size_t failed = 0;             ///< executions failing a check
    std::vector<std::string> problems;  ///< one line per failed check
    std::vector<std::uint64_t> digests; ///< per-cell, grid order
};

/** How much a plain run measures. */
struct RunLength
{
    double seconds = 0;      ///< passes continue until this elapses
    unsigned minPasses = 1;
    double setupSeconds = 0; ///< before each pass, set up for this long
};

/**
 * The plain run. Before every pass, set up at least once and for at
 * least @p len.setupSeconds (setup_s is the median over the whole run,
 * so a burst of host load skews few of them); then time one pass over
 * the grid through CellRunner::run. Passes repeat until
 * @p len.seconds have elapsed; each cell keeps its fastest pass. Every
 * cell is audited after each pass (auditCell, plus digest stability
 * across passes).
 */
RunReport runEndToEnd(const PerfWorkload &w, const RunLength &len,
                      const std::map<std::string, std::string> *expected);

/**
 * The traced run. One pass where each cell runs untraced through
 * CellRunner::run (audited as in the plain run) and then again driving
 * System directly with a span around each layer call, which must
 * reproduce its digest; then the isolation legs, repeated until
 * @p seconds have elapsed. Spans are written as Chrome-trace JSON to
 * @p trace_path when it is non-empty.
 */
RunReport runTraced(const PerfWorkload &w, double seconds,
                    const std::map<std::string, std::string> *expected,
                    const std::string &trace_path);

} // namespace perf

#endif // VMSIM_PERFBENCH_HARNESS_HH
