/**
 * @file
 * Differential fuzzing across execution strategies.
 *
 * The simulator promises that its execution strategies are
 * observationally equivalent: scalar vs batched loops, generated vs
 * cached-replay traces, observed vs unobserved runs must all produce
 * bit-identical counter vectors, and injected faults must fail every
 * strategy identically. DiffRunner hammers that promise with seeded
 * random (organization, workload, config, batch, context-switch,
 * ASID, fault) tuples, audits every successful leg with the
 * InvariantChecker, shrinks failing tuples to a minimal reproducer,
 * and reports them as a deterministic JSON artifact.
 */

#ifndef VMSIM_CHECK_DIFF_HH
#define VMSIM_CHECK_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/json.hh"
#include "check/invariants.hh"
#include "core/sim_config.hh"

namespace vmsim
{

/** One randomly drawn simulation setup; fully determined by
 *  (campaign seed, case index). */
struct FuzzTuple
{
    std::uint64_t index = 0;  ///< case index within the campaign
    SystemKind kind = SystemKind::Ultrix;
    std::string workload = "gcc";
    std::uint64_t seed = 1;   ///< simulation seed (trace + policies)
    Counter instrs = 0;
    Counter warmup = 0;
    Counter ctxSwitch = 0;    ///< context-switch interval (0 = never)
    unsigned asidBits = 0;
    unsigned tlbEntries = 0;  ///< first-level TLB entries (0 = default);
                              ///< small values churn the TLB slot
                              ///< index through fills and erases
    unsigned l2TlbEntries = 0;
    std::size_t l1Size = 0;
    unsigned l1Line = 0;
    std::size_t l2Size = 0;
    unsigned l2Line = 0;
    std::size_t batch = 0;    ///< batched-leg fetch size
    bool faults = false;      ///< inject trace-read faults in all legs
    unsigned cores = 1;       ///< simulated cores (1 = legacy loop)
    Counter coreQuantum = 0;  ///< scheduler slot length (0 = default)
    bool sharedL2Tlb = true;  ///< share one L2 TLB across cores
    std::uint64_t physFrames = 0; ///< frame budget (0 = unlimited)
    ReclaimPolicy reclaim = ReclaimPolicy::Fifo;

    SimConfig toConfig() const;
    Json toJson() const;
    std::string toString() const;
};

/** Campaign parameters. */
struct DiffOptions
{
    std::uint64_t seed = 12345;
    Counter maxInstrs = 20000;  ///< cap on per-case instruction count
    bool includeFaults = true;  ///< draw fault-injection tuples too
    unsigned forceCores = 0;    ///< pin every tuple's core count
                                ///< (0 = draw from {1, 1, 2, 4})
};

/** One failing tuple, with its shrunk reproducer and broken laws. */
struct FuzzFailure
{
    FuzzTuple tuple;
    FuzzTuple minimized;
    std::string phase; ///< first failing leg (batched/cached/...)
    std::vector<CheckViolation> violations;

    Json toJson() const;
};

/** Deterministic campaign result (stable across reruns of a seed). */
struct FuzzReport
{
    std::uint64_t seed = 0;
    unsigned cases = 0;
    std::size_t lawsChecked = 0;
    std::vector<FuzzFailure> failures;

    bool ok() const { return failures.empty(); }
    Json toJson() const;
    std::string toString() const;
};

class DiffRunner
{
  public:
    explicit DiffRunner(const DiffOptions &opts = DiffOptions{});

    /** The tuple for one case index (pure function of the seed). */
    FuzzTuple generate(std::uint64_t index) const;

    /**
     * Run one tuple through every leg: scalar reference, batched,
     * observed (+ full invariant audit), cached replay, and — for
     * warmup-free fault-free tuples — the live-TLB laws. Violation
     * law names are prefixed with the failing leg.
     */
    CheckReport runCase(const FuzzTuple &tuple) const;

    /** Shrink a failing tuple while it keeps failing. */
    FuzzTuple minimize(FuzzTuple tuple) const;

    /** Run @p cases tuples and collect (minimized) failures. */
    FuzzReport run(unsigned cases) const;

  private:
    DiffOptions opts_;
};

} // namespace vmsim

#endif // VMSIM_CHECK_DIFF_HH
