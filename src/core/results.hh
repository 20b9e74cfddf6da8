/**
 * @file
 * Simulation results: the paper's MCPI / VMCPI accounting.
 *
 * The unit of measurement is cycles per (user-level) instruction.
 *
 *  - MCPI (Table 2): the memory system's basic cost — cache-miss
 *    cycles on user references only, but *including* the extra misses
 *    inflicted when handlers and PTE loads displace user code/data.
 *  - VMCPI (Table 3): the additional burden of the VM system — handler
 *    execution, PTE-load misses at each page-table level, and handler
 *    I-cache misses.
 *  - Interrupt CPI: precise-interrupt cost (pipeline/ROB flush),
 *    reported separately and swept over {10, 50, 200} cycles.
 *
 * Total CPI assumes the paper's 1-CPI core:
 *     CPI = 1 + MCPI + VMCPI + interrupt CPI.
 */

#ifndef VMSIM_CORE_RESULTS_HH
#define VMSIM_CORE_RESULTS_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "base/json.hh"
#include "core/sim_config.hh"
#include "mem/mem_system.hh"
#include "os/vm_system.hh"

namespace vmsim
{

/** MCPI split into the paper's Table 2 components. */
struct McpiBreakdown
{
    double l1iMiss = 0; ///< user I-fetch missed L1 (20 cycles each)
    double l1dMiss = 0; ///< user load/store missed L1
    double l2iMiss = 0; ///< user I-fetch missed L2 (500 cycles each)
    double l2dMiss = 0; ///< user load/store missed L2

    double total() const { return l1iMiss + l1dMiss + l2iMiss + l2dMiss; }
};

/** VMCPI split into the paper's Table 3 components. */
struct VmcpiBreakdown
{
    double uhandler = 0;   ///< user-handler base cost (instrs / FSM cycles)
    double upteL2 = 0;     ///< user-PTE load missed L1d
    double upteMem = 0;    ///< user-PTE load missed L2d
    double khandler = 0;   ///< kernel-handler base cost
    double kpteL2 = 0;
    double kpteMem = 0;
    double rhandler = 0;   ///< root-handler base cost
    double rpteL2 = 0;
    double rpteMem = 0;
    double handlerL2 = 0;  ///< handler I-fetch missed L1i
    double handlerMem = 0; ///< handler I-fetch missed L2i

    double
    total() const
    {
        return uhandler + upteL2 + upteMem + khandler + kpteL2 +
               kpteMem + rhandler + rpteL2 + rpteMem + handlerL2 +
               handlerMem;
    }

    /** (tag, value) pairs in the paper's Table 3 order. */
    std::vector<std::pair<std::string, double>> components() const;
};

/** Snapshot of one simulation run with derived metrics. */
class Results
{
  public:
    Results() = default;

    /**
     * @param system display name of the VM organization
     * @param workload display name of the workload
     * @param user_instrs user-level instructions executed
     * @param mem per-class cache counters at end of run
     * @param vm VM-mechanism event counters at end of run
     * @param costs cycle-cost model to apply
     */
    Results(std::string system, std::string workload, Counter user_instrs,
            const MemSystemStats &mem, const VmStats &vm,
            const CostModel &costs);

    const std::string &system() const { return system_; }
    const std::string &workload() const { return workload_; }
    Counter userInstrs() const { return userInstrs_; }
    const MemSystemStats &memStats() const { return mem_; }
    const VmStats &vmStats() const { return vm_; }
    const CostModel &costs() const { return costs_; }

    /** Memory-system overhead per user instruction (Table 2). */
    McpiBreakdown mcpiBreakdown() const;
    double mcpi() const { return mcpiBreakdown().total(); }

    /** Virtual-memory overhead per user instruction (Table 3). */
    VmcpiBreakdown vmcpiBreakdown() const;
    double vmcpi() const { return vmcpiBreakdown().total(); }

    /** Interrupt overhead per user instruction. */
    double interruptCpi() const;

    /** Interrupt overhead under an alternative per-interrupt cost. */
    double interruptCpiAt(Cycles interrupt_cycles) const;

    /**
     * Inter-core TLB shootdown overhead per user instruction (IPI
     * delivery + invalidate-handler cycles). Exactly zero on
     * single-core runs, so every pre-multicore metric is unchanged.
     */
    double shootdownCpi() const;

    /**
     * Major-fault overhead per user instruction (page-read plus dirty
     * writeback cycles under a frame budget). Exactly zero when no
     * budget is configured, so every pre-pressure metric is unchanged.
     */
    double faultCpi() const;

    /** Total CPI on the 1-CPI core. */
    double
    totalCpi() const
    {
        return 1.0 + mcpi() + vmcpi() + interruptCpi() + shootdownCpi() +
               faultCpi();
    }

    /**
     * VM overhead as a fraction of total run time, *excluding* cache
     * pollution and interrupts — the "5-10%" accounting of prior
     * studies.
     */
    double vmOverheadNaive() const { return vmcpi() / totalCpi(); }

    /** Human-readable multi-line summary. */
    void printSummary(std::ostream &os) const;

    /**
     * Machine-readable snapshot: metadata, raw event counts, and the
     * derived MCPI/VMCPI/interrupt metrics with full breakdowns.
     */
    Json toJson() const;

    /**
     * Exact state snapshot for the sweep journal: strings and integer
     * counters only, so a reloaded cell reproduces every derived
     * metric bit-for-bit. The cost model is deliberately absent — its
     * doubles would have to round-trip through decimal text; resume
     * reconstructs it from the sweep spec instead.
     */
    Json serialize() const;

    /**
     * Inverse of serialize(). @p costs supplies the cost model the
     * journal omits. Malformed input yields ParseError, and so do
     * per-core slices whose sums disagree with their aggregates.
     * @p require_per_core makes a missing `vm.per_core` malformed too:
     * only records from before per-core counters existed (unframed,
     * version-1 journal lines) may lack it.
     */
    static Expected<Results> deserialize(const Json &j,
                                         const CostModel &costs,
                                         bool require_per_core = false);

  private:
    double perInstr(Counter n) const;

    std::string system_ = "?";
    std::string workload_ = "?";
    Counter userInstrs_ = 0;
    MemSystemStats mem_{};
    VmStats vm_{};
    CostModel costs_{};
};

} // namespace vmsim

#endif // VMSIM_CORE_RESULTS_HH
