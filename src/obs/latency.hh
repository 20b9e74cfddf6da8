/**
 * @file
 * LatencyCollector: distribution-level cost attribution. Where Results
 * reports VM overhead as per-instruction *means* (MCPI / VMCPI, the
 * paper's Table 4), the collector keeps per-core, log-spaced
 * histograms of the individual episodes behind those means:
 *
 *  - miss service: simulated cycles from a user TLB miss to its refill
 *    completing (interrupt + handler fetches + PTE loads + FSM work,
 *    whatever the organization's mechanism charges);
 *  - hardware walk: cycles per FSM walk (INTEL / HW-* / SPUR);
 *  - shootdown: cycles charged per received invalidate IPI;
 *  - fault: cycles charged per frame-budget major fault (read plus
 *    any victim writebacks; empty unless a budget is configured);
 *  - TLB residency: entry lifetime (insert to evict) and hit reuse
 *    distance, both in lookup probes of the owning TLB.
 *
 * VmSystem accrues episode cycles only while a collector is attached,
 * and the accrual never touches simulation state — counters and RNG
 * streams stay bit-identical with the collector on or off (DiffRunner
 * proves this). Histogram totals reconcile exactly with the Results
 * counters (misses, walks, shootdowns) — a law the InvariantChecker
 * audits.
 */

#ifndef VMSIM_OBS_LATENCY_HH
#define VMSIM_OBS_LATENCY_HH

#include <vector>

#include "base/stats.hh"
#include "base/types.hh"

namespace vmsim
{

class StatsRegistry;

/**
 * Cycle penalties the collector charges per episode, mirroring the
 * CostModel of the driving configuration (copied in at attach time so
 * the obs layer stays independent of core/).
 */
struct LatencyCosts
{
    Cycles l1MissCycles = 20;    ///< L1 miss serviced by L2
    Cycles l2MissCycles = 500;   ///< L2 miss serviced by memory
    Cycles interruptCycles = 50; ///< per precise interrupt
};

/**
 * Per-core latency and residency histograms. configure() sizes the
 * per-core vectors; merged*() accessors fold all cores into one
 * histogram for aggregate reporting.
 */
class LatencyCollector
{
  public:
    /**
     * Bucket geometry for cycle-valued episode histograms. Copies of
     * one prototype share its integer edge table, so only the first
     * call pays for deriving it.
     */
    static Histogram cycleHistogram()
    {
        static const Histogram proto = Histogram::logSpaced(1.0, 1e6, 24);
        return proto;
    }

    /** Bucket geometry for probe-valued residency histograms. */
    static Histogram residencyHistogram()
    {
        static const Histogram proto = Histogram::logSpaced(1.0, 1e8, 32);
        return proto;
    }

    LatencyCollector() { configure(1, LatencyCosts{}); }

    /** Size for @p cores and adopt @p costs; clears all histograms. */
    void configure(unsigned cores, const LatencyCosts &costs);

    /** Clear every histogram, keeping the core count and costs. */
    void reset();

    unsigned cores() const { return cores_; }
    const LatencyCosts &costs() const { return costs_; }

    /** @name Per-core sample targets (core ids are pre-clamped by the
     *  caller; see VmSystem::coreSlot()). @{ */
    Histogram &missService(unsigned core) { return missService_[core]; }
    Histogram &hwWalk(unsigned core) { return hwWalk_[core]; }
    Histogram &shootdown(unsigned core) { return shootdown_[core]; }
    Histogram &fault(unsigned core) { return fault_[core]; }
    Histogram &itlbLifetime(unsigned core) { return itlbLifetime_[core]; }
    Histogram &itlbReuse(unsigned core) { return itlbReuse_[core]; }
    Histogram &dtlbLifetime(unsigned core) { return dtlbLifetime_[core]; }
    Histogram &dtlbReuse(unsigned core) { return dtlbReuse_[core]; }

    const Histogram &missService(unsigned core) const
    {
        return missService_[core];
    }
    const Histogram &hwWalk(unsigned core) const { return hwWalk_[core]; }
    const Histogram &shootdown(unsigned core) const
    {
        return shootdown_[core];
    }
    const Histogram &fault(unsigned core) const { return fault_[core]; }
    const Histogram &itlbLifetime(unsigned core) const
    {
        return itlbLifetime_[core];
    }
    const Histogram &itlbReuse(unsigned core) const
    {
        return itlbReuse_[core];
    }
    const Histogram &dtlbLifetime(unsigned core) const
    {
        return dtlbLifetime_[core];
    }
    const Histogram &dtlbReuse(unsigned core) const
    {
        return dtlbReuse_[core];
    }
    /** @} */

    /** @name All-cores merges (exercise Histogram::merge()). @{ */
    Histogram mergedMissService() const { return mergeAll(missService_); }
    Histogram mergedHwWalk() const { return mergeAll(hwWalk_); }
    Histogram mergedShootdown() const { return mergeAll(shootdown_); }
    Histogram mergedFault() const { return mergeAll(fault_); }
    Histogram mergedItlbLifetime() const { return mergeAll(itlbLifetime_); }
    Histogram mergedItlbReuse() const { return mergeAll(itlbReuse_); }
    Histogram mergedDtlbLifetime() const { return mergeAll(dtlbLifetime_); }
    Histogram mergedDtlbReuse() const { return mergeAll(dtlbReuse_); }
    /** @} */

  private:
    static Histogram mergeAll(const std::vector<Histogram> &per_core);

    unsigned cores_ = 1;
    LatencyCosts costs_;
    std::vector<Histogram> missService_;
    std::vector<Histogram> hwWalk_;
    std::vector<Histogram> shootdown_;
    std::vector<Histogram> fault_;
    std::vector<Histogram> itlbLifetime_;
    std::vector<Histogram> itlbReuse_;
    std::vector<Histogram> dtlbLifetime_;
    std::vector<Histogram> dtlbReuse_;
};

/**
 * Register the collector's histograms (aggregates plus per-core slices
 * under "<name>.coreN" on multicore runs) in @p registry so they ride
 * along in every stats JSON dump.
 */
void exportLatency(const LatencyCollector &lat, StatsRegistry &registry);

} // namespace vmsim

#endif // VMSIM_OBS_LATENCY_HH
