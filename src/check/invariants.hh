/**
 * @file
 * Post-run invariant auditing: conservation laws over Results.
 *
 * The paper's argument is an exercise in cost *attribution* — every
 * cycle of MCPI/VMCPI must be conserved and assigned to the right
 * Table-2/3 tag. The InvariantChecker re-derives those sums from the
 * raw counters of a finished run and cross-checks them against the
 * published breakdowns, against the per-organization page-table laws
 * of Table 4 (e.g. an ULTRIX cold miss costs exactly two PTE loads
 * and two interrupts, an INTEL walk two PTE loads and none), and —
 * when an event stream or interval series was collected — against
 * the observability layer's own view of the same run.
 *
 * Checks accumulate into a CheckReport rather than asserting, so one
 * audit surfaces every broken law at once; orThrow() converts a
 * failed report into a structured Internal error for callers (sweep
 * cells, CLI --check) that need to fail closed.
 */

#ifndef VMSIM_CHECK_INVARIANTS_HH
#define VMSIM_CHECK_INVARIANTS_HH

#include <sstream>
#include <string>
#include <vector>

#include "base/json.hh"
#include "core/results.hh"
#include "core/sim_config.hh"
#include "obs/event.hh"
#include "obs/interval.hh"

namespace vmsim
{

class PhysMem;
class Tlb;
class VmSystem;
struct TelemetrySnapshot;

/** One broken law: which invariant, and the numbers that broke it. */
struct CheckViolation
{
    std::string law;     ///< short law identifier, e.g. "ultrix.pte-loads"
    std::string message; ///< expected-vs-actual detail

    std::string toString() const { return law + ": " + message; }
};

/**
 * Accumulator for one audit: counts every law evaluated and records
 * the ones that failed.
 */
class CheckReport
{
  public:
    /** Evaluate one law; on failure record `parts...` as the detail. */
    template <typename... Args>
    bool check(bool condition, const char *law, Args &&...parts)
    {
        ++checked_;
        if (!condition) {
            std::ostringstream oss;
            (oss << ... << parts);
            violations_.push_back({law, oss.str()});
        }
        return condition;
    }

    bool ok() const { return violations_.empty(); }
    std::size_t lawsChecked() const { return checked_; }
    const std::vector<CheckViolation> &violations() const
    {
        return violations_;
    }

    void merge(const CheckReport &other);

    /** merge() with @p prefix prepended to every violation's law —
     *  used by the fuzzer to tag which leg broke. */
    void mergePrefixed(const CheckReport &other,
                       const std::string &prefix);

    /** "N laws checked, M violations" plus one line per violation. */
    std::string toString() const;
    Json toJson() const;

    /** Throw ErrorCode::Internal listing every violation if !ok(). */
    void orThrow() const;

  private:
    std::size_t checked_ = 0;
    std::vector<CheckViolation> violations_;
};

/**
 * Audits a finished run against the configuration that produced it.
 *
 * check() covers the counter-only laws (always available); the
 * event/interval variants additionally reconcile the observability
 * layer's streams with the aggregate counters. checkAll() is the
 * one-call form used by --check and the sweep audit hook.
 */
class InvariantChecker
{
  public:
    explicit InvariantChecker(const SimConfig &config);

    /** Counter conservation + CPI reconstruction + Table-4 org laws. */
    CheckReport check(const Results &r) const;
    void check(const Results &r, CheckReport &rep) const;

    /** Event stream totals must match the run's counters exactly. */
    void checkEvents(const Results &r,
                     const std::vector<TraceEvent> &events,
                     CheckReport &rep) const;

    /** Interval deltas must partition the run and sum to aggregate. */
    void checkIntervals(const Results &r,
                        const std::vector<IntervalRecord> &intervals,
                        CheckReport &rep) const;

    /**
     * Latency-histogram totals must reconcile exactly with the run's
     * counters: one miss-service episode per TLB miss, one walk sample
     * per hardware walk, one shootdown sample per received IPI.
     */
    void checkLatency(const Results &r, const LatencyCollector &lat,
                      CheckReport &rep) const;

    /** All of the above; pass nullptr for streams not collected. */
    CheckReport
    checkAll(const Results &r,
             const std::vector<TraceEvent> *events = nullptr,
             const std::vector<IntervalRecord> *intervals = nullptr,
             const LatencyCollector *latency = nullptr) const;

    /** Handler costs as the organization under audit resolved them. */
    const HandlerCosts &resolvedCosts() const { return costs_; }

  private:
    SimConfig config_;
    HandlerCosts costs_;
};

/**
 * Exact counter-vector diff between two runs that must agree
 * (scalar vs batched, cached vs generated, observed vs unobserved).
 * Every mismatching field becomes one violation naming both sides.
 */
CheckReport diffResults(const Results &a, const Results &b,
                        const std::string &label_a,
                        const std::string &label_b);

/**
 * True when @p kind's VM never reads a cache outcome, so that
 * checkCacheIndependence() applies: the six TLB organizations and
 * BASE. NOTLB and SPUR are excluded because their refills fire on user
 * L2-cache misses, so their VmStats move with the cache geometry.
 * Sweep cells of these organizations share one VM front end across
 * cache geometries (frontEndShareable(), DESIGN.md §6).
 */
bool cacheBlindVm(SystemKind kind);

/**
 * Cross-cell law "cache independence of the VM": @p cells, runs of one
 * cacheBlindVm() organization on one input that differ only in cache
 * geometry, must agree on every VmStats counter and every per-core
 * slice, since nothing in the cache model feeds back into a TLB, a
 * page table or a refill decision. The bare kernels' I/D span passes
 * (VmSystem::runSpan) rest on the same fact. @p labels name the cells
 * (one per cell) in violations, which are tagged
 * "cache-independence.".
 */
CheckReport checkCacheIndependence(const std::vector<Results> &cells,
                                   const std::vector<std::string> &labels);

/**
 * True when @p c meets every precondition of the stack-inclusion law
 * (checkStackInclusion): one core, no frame budget, no ASIDs, no L2
 * TLB, no context-switch displacement and LRU fully associative TLBs,
 * since each of these lets a larger TLB drop or keep an entry the
 * smaller one would not; and an organization whose TLBs see the user
 * reference stream alone. That is INTEL, PA-RISC and HW-INVERTED,
 * which walk physically addressed page tables. ULTRIX, MACH and
 * HW-MIPS are excluded because their walks load UPTEs through the
 * D-TLB, so a larger TLB changes which references the walks make.
 * NOTLB, BASE and SPUR have no TLB to size.
 */
bool stackInclusionApplies(const SimConfig &c);

/**
 * Cross-cell law "stack inclusion" (Mattson et al., 1970): an LRU
 * fully associative TLB of n entries always holds the n most recently
 * used pages, so a larger one holds a superset and never misses more
 * on the same input. @p cells are runs on one input whose configs
 * @p configs differ only in tlbEntries, in strictly increasing order;
 * I-TLB and D-TLB misses must not rise from one cell to the next.
 * Every config must satisfy stackInclusionApplies(). Violations are
 * tagged "stack-inclusion.".
 */
CheckReport checkStackInclusion(const std::vector<SimConfig> &configs,
                                const std::vector<Results> &cells);

/**
 * Conservation law for partial (canceled) runs: the simulator's
 * executed-instruction count must equal the user instruction fetches
 * the memory system actually saw — no instruction half-retired.
 */
CheckReport checkExecutedConservation(Counter executed,
                                      const MemSystemStats &mem);

/**
 * Live-TLB laws, valid only for a warmup-free run on a fresh System
 * (warmup resets VM/memory counters but never the TLBs' own): every
 * instruction probes the I-TLB once, and TLB hits + misses must equal
 * translations performed.
 */
void checkLiveTlb(const VmSystem &vm, Counter instrs, CheckReport &rep);

/**
 * Live frame-assignment law (PhysMem::auditFrames): every mapped page
 * holds a distinct frame, no free-list frame is also mapped, and
 * mapped plus free frames equal the frames handed out. Under a frame
 * budget this sees the recycling of frames the hashed and inverted
 * tables assign, which feed no counter.
 */
void checkLivePhysMem(const PhysMem &pm, CheckReport &rep);

/**
 * Telemetry accounting laws over one snapshot: done + failed + pending
 * must cover the grid exactly, and every worker's current cell must
 * lie inside it (or be -1 idle). The sweep's final heartbeat must
 * additionally show zero pending — pass @p final for that law.
 */
void checkTelemetry(const TelemetrySnapshot &snap, bool final,
                    CheckReport &rep);

} // namespace vmsim

#endif // VMSIM_CHECK_INVARIANTS_HH
