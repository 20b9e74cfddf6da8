/**
 * @file
 * The declarative sweep engine: paper Table 1's grids, a SweepSpec
 * describing a cross-product of simulation points, and a SweepRunner
 * that executes the materialized cells — serially or on a thread pool
 * — into a stable, grid-ordered SweepResults table.
 *
 * The design invariant is determinism: a cell's SimConfig is derived
 * only from the spec and the cell's grid coordinates, every cell
 * builds its own System (no shared mutable state), and results land
 * in a pre-sized table indexed by grid position. Output is therefore
 * byte-identical whether the sweep runs on 1 thread or 64.
 *
 * Typical use (see docs/sweeps.md and bench/figures.cc):
 *
 *     SweepSpec spec;
 *     spec.systems(paperVmSystems())
 *         .workloads({"gcc"})
 *         .l1Sizes(paperL1Sizes(full))
 *         .l2Sizes(paperL2Sizes(full))
 *         .lineSizes(paperLineSizes(full))
 *         .instructions(2'000'000);
 *     SweepResults res = SweepRunner(jobs).run(spec);
 *     double v = res.at({.system = 0, .l1 = 2, .line = 1}).vmcpi();
 */

#ifndef VMSIM_CORE_SWEEP_HH
#define VMSIM_CORE_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "base/error.hh"
#include "base/thread_pool.hh"
#include "core/results.hh"
#include "core/sim_config.hh"
#include "core/simulator.hh"
#include "fault/fault.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"

namespace vmsim
{

/** L1 sizes per side in bytes (paper: 1..128 KB). */
std::vector<std::uint64_t> paperL1Sizes(bool full);

/** L2 sizes per side in bytes (figure captions: 1, 2, 4 MB). */
std::vector<std::uint64_t> paperL2Sizes(bool full);

/**
 * (L1 line, L2 line) combinations from {16,32,64,128} with
 * L2 line >= L1 line. The reduced set keeps one combination per L1
 * line size, including the paper's featured 64/128.
 */
std::vector<std::pair<unsigned, unsigned>> paperLineSizes(bool full);

/** The paper's interrupt-cost sweep: {10, 50, 200} cycles. */
std::vector<Cycles> paperInterruptCosts();

/**
 * Observability attachments for a sweep (or a single cell): which
 * exporters to run and where they write. All fields optional; the
 * default-constructed value observes nothing and costs nothing.
 */
struct ObsOptions
{
    /**
     * JSONL event-log path. With more than one cell each cell writes
     * to "<path>.cell<flat>" so concurrent workers never share a file.
     */
    std::string traceEvents;

    /**
     * Chrome-trace (Perfetto) output path. A sweep renders each cell's
     * wall time as a duration slice on its worker's track (pid 0); a
     * single-cell run additionally streams simulated VM events on the
     * instruction timebase (pid 1).
     */
    std::string chromeTrace;

    /** Stats-registry JSON dump path (per-cell rows + distributions). */
    std::string statsJson;

    /** Interval length in instructions for the sampler; 0 = off. */
    Counter interval = 0;

    /**
     * Live-telemetry heartbeat period in seconds (--progress[=secs]);
     * 0 = no progress reporting was requested. With no progressOut
     * path the heartbeats render as one-line stderr updates.
     */
    double progressSeconds = 0;

    /** JSONL heartbeat file for live telemetry (--progress-out). */
    std::string progressOut;

    /** True when any live-telemetry output was requested. */
    bool
    telemetry() const
    {
        return progressSeconds > 0 || !progressOut.empty();
    }

    bool
    any() const
    {
        return !traceEvents.empty() || !chromeTrace.empty() ||
               !statsJson.empty() || interval != 0 || telemetry();
    }
};

/**
 * One entry of a table-driven command-line parser (parseFlags()). The
 * destination's type is the value kind:
 *   - bool *: a bare "--name" that sets it to true;
 *   - std::uint32_t *, std::uint64_t *, std::optional<std::uint64_t> *:
 *     "--name=N", a strict unsigned decimal (base/parse.hh);
 *   - double *: "--name=S", a finite decimal >= 0;
 *   - std::string *: "--name=F", any non-empty string;
 *   - a callable: "--name=V", handed to a named parser such as
 *     parseReclaimPolicy() or FaultSpec::parse().
 * Zero for a @c positive flag and a negative double are fatal(); a
 * malformed number or one above @c max is an InvalidArgument error.
 */
struct Flag
{
    using Dest = std::variant<bool *, std::uint32_t *, std::uint64_t *,
                              std::optional<std::uint64_t> *, double *,
                              std::string *,
                              std::function<void(const char *)>>;

    const char *name;         ///< "--tlb"
    const char *metavar = ""; ///< value placeholder for usage lists
    Dest dest;
    bool positive = false; ///< numbers: reject zero
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    double bare = 0; ///< double: the value of a bare "--name"; 0 = none
};

/**
 * Apply argv[1..argc) to @p flags in order. An argument no entry
 * names is fatal(), with the accepted flags listed.
 */
void parseFlags(int argc, char **argv, const std::vector<Flag> &flags);

/**
 * The run options both front ends accept, the bench binaries through
 * BenchOptions and examples/vmsim_cli.cc directly; flags() is their
 * one flag table, and each field notes its flag.
 */
struct RunOptions
{
    Counter instructions = 2'000'000; ///< --instructions=N, measured
    std::optional<Counter> warmup; ///< --warmup=N; unset = resolvedWarmup()
    std::uint64_t seed = 12345;    ///< --seed=N, workload/policy seed
    unsigned seeds = 1;        ///< --seeds=N replications (seed, seed+1, ...)
    ObsOptions obs;            ///< --trace-events, --chrome-trace,
                               ///< --stats-json, --interval, --progress,
                               ///< --progress-out
    FaultSpec faults;          ///< --inject-faults=SPEC
    std::size_t batch = 0;     ///< --batch=N trace fetch; 0 = default
    unsigned cores = 1;        ///< --cores=N simulated cores
    Counter coreQuantum = 0;   ///< --core-quantum=N; 0 = SimConfig's
    bool privateL2Tlb = false; ///< --private-l2tlb: per-core L2 TLBs
    std::uint64_t physMb = 0;  ///< --phys-mb=N frame budget; 0 = unlimited
    ReclaimPolicy reclaim = ReclaimPolicy::Fifo; ///< --reclaim=P
    bool check = false;        ///< --check: audit every run's Results
    unsigned fuzz = 0;         ///< --fuzz=N differential cases; 0 = off
    std::string shardDir;      ///< --shard-dir=D; empty = not sharded
    std::string shardOwner;    ///< --shard-owner=ID; empty = "pid<pid>"
    double leaseSeconds = 30.0; ///< --lease-seconds=S stale-lease horizon

    /** The flag table; entries point into this object. */
    std::vector<Flag> flags();

    /**
     * Copy the seed, core and frame-budget settings into @p cfg. The
     * budget is resolved here, after parsing, so --phys-mb composes
     * with a --page-bits given in either order; a no-op at the
     * defaults.
     */
    void applyTo(SimConfig &cfg) const;

    /** The --phys-mb budget in frames for @p page_bits pages. */
    std::uint64_t physFramesFor(unsigned page_bits) const;

    /**
     * Both front ends' check after parsing: fatal() when an
     * observation flag (--trace-events, --chrome-trace, --stats-json,
     * --interval, --progress, --progress-out) comes with --shard-dir,
     * whose workers run their cells without observers.
     */
    void refuseShardObservers() const;

    /**
     * The effective warmup length: --warmup=N or the project-wide
     * default of one quarter of the measured instructions.
     */
    Counter
    resolvedWarmup() const
    {
        return warmup.value_or(defaultWarmup(instructions));
    }
};

/**
 * Command-line options of the bench binaries: RunOptions plus the
 * sweep-only flags below (BenchOptions::parse() holds the table).
 * Unknown arguments are fatal() so typos don't silently run the wrong
 * experiment.
 */
struct BenchOptions : RunOptions
{
    bool full = false;         ///< --full: the complete paper grid
    bool csv = false;          ///< --csv instead of aligned text
    unsigned jobs = 0;         ///< --jobs=N; 0 = hardware_concurrency
    unsigned retries = 0;      ///< --retries=N transient-failure retries
    double retryBackoff = 0.0; ///< --retry-backoff=S base seconds
    std::string journal;       ///< --journal=F checkpoint; empty = off
    bool resume = false;       ///< --resume: load the journal first
    std::size_t traceCacheMb = 256; ///< --trace-cache-mb=N; 0 = off
    std::vector<std::uint64_t> physMbList; ///< --phys-mb-list=A,B axis

    static BenchOptions parse(int argc, char **argv);
};

/**
 * One value of the open-ended sweep axis: a label plus an arbitrary
 * SimConfig mutation. This is how benches sweep dimensions the fixed
 * axes don't cover (TLB geometry, page size, replacement policy,
 * scheduling quantum, ...).
 */
struct ConfigVariant
{
    std::string label;
    std::function<void(SimConfig &)> apply; ///< may be empty (identity)
};

/**
 * Grid coordinates of one sweep cell. Members index into the
 * corresponding SweepSpec axis; axes left at their defaults have a
 * single implicit value at index 0, so designated initializers name
 * only the axes a lookup actually sweeps.
 */
struct CellIndex
{
    std::size_t system = 0;
    std::size_t workload = 0;
    std::size_t l1 = 0;
    std::size_t l2 = 0;
    std::size_t line = 0;
    std::size_t variant = 0;
    std::size_t seed = 0;

    bool
    operator==(const CellIndex &o) const
    {
        return system == o.system && workload == o.workload &&
               l1 == o.l1 && l2 == o.l2 && line == o.line &&
               variant == o.variant && seed == o.seed;
    }
};

/** One materialized sweep point: coordinates plus the derived config. */
struct SweepCell
{
    CellIndex index;
    std::size_t flat = 0; ///< position in grid order
    SimConfig config;
    std::string workload;
};

/**
 * A declarative description of a sweep: a base SimConfig plus the
 * axes to cross. Every axis is optional; an unset axis contributes a
 * single cell using the base config's value. Axis setters are fluent
 * and the spec is a value type, so grids compose from the
 * paperL1Sizes()/paperL2Sizes()/paperLineSizes() helpers naturally.
 *
 * Grid order (outermost to innermost): system, workload, L1 size,
 * L2 size, line combo, variant, seed. SweepResults iteration and CSV
 * emission follow this order deterministically.
 */
class SweepSpec
{
  public:
    /** Base configuration every cell starts from. */
    SweepSpec &
    base(const SimConfig &cfg)
    {
        base_ = cfg;
        return *this;
    }

    SweepSpec &
    systems(std::vector<SystemKind> kinds)
    {
        systems_ = std::move(kinds);
        return *this;
    }

    SweepSpec &
    workloads(std::vector<std::string> names)
    {
        workloads_ = std::move(names);
        return *this;
    }

    SweepSpec &
    l1Sizes(std::vector<std::uint64_t> bytes)
    {
        l1Sizes_ = std::move(bytes);
        return *this;
    }

    SweepSpec &
    l2Sizes(std::vector<std::uint64_t> bytes)
    {
        l2Sizes_ = std::move(bytes);
        return *this;
    }

    /** (L1 line, L2 line) combinations, e.g. paperLineSizes(full). */
    SweepSpec &
    lineSizes(std::vector<std::pair<unsigned, unsigned>> combos)
    {
        lineSizes_ = std::move(combos);
        return *this;
    }

    /** Open-ended axis: arbitrary labeled SimConfig mutations. */
    SweepSpec &
    variants(std::vector<ConfigVariant> vs)
    {
        variants_ = std::move(vs);
        return *this;
    }

    /**
     * Replicate every cell across @p n seeds (base seed, +1, ...).
     * Summarize with SweepResults::seedStats().
     */
    SweepSpec &
    seeds(unsigned n)
    {
        seeds_ = n ? n : 1;
        return *this;
    }

    SweepSpec &
    instructions(Counter n)
    {
        instructions_ = n;
        return *this;
    }

    /** Warmup per cell; nullopt = defaultWarmup(instructions). */
    SweepSpec &
    warmup(std::optional<Counter> n)
    {
        warmup_ = n;
        return *this;
    }

    const SimConfig &baseConfig() const { return base_; }
    const std::vector<SystemKind> &systemAxis() const { return systems_; }
    const std::vector<std::string> &workloadAxis() const
    {
        return workloads_;
    }
    const std::vector<std::uint64_t> &l1Axis() const { return l1Sizes_; }
    const std::vector<std::uint64_t> &l2Axis() const { return l2Sizes_; }
    const std::vector<std::pair<unsigned, unsigned>> &lineAxis() const
    {
        return lineSizes_;
    }
    const std::vector<ConfigVariant> &variantAxis() const
    {
        return variants_;
    }
    unsigned seedCount() const { return seeds_; }
    Counter instructionCount() const { return instructions_; }
    std::optional<Counter> warmupCount() const { return warmup_; }

    /** Size of each grid dimension (unset axes count 1). */
    std::size_t systemDim() const { return dim(systems_.size()); }
    std::size_t workloadDim() const { return dim(workloads_.size()); }
    std::size_t l1Dim() const { return dim(l1Sizes_.size()); }
    std::size_t l2Dim() const { return dim(l2Sizes_.size()); }
    std::size_t lineDim() const { return dim(lineSizes_.size()); }
    std::size_t variantDim() const { return dim(variants_.size()); }
    std::size_t seedDim() const { return seeds_; }

    /** Total number of cells in the cross-product. */
    std::size_t numCells() const;

    /** Grid-order position of @p idx; panic() on out-of-range axes. */
    std::size_t flatIndex(const CellIndex &idx) const;

    /** Coordinates of grid position @p flat. */
    CellIndex unflatten(std::size_t flat) const;

    /**
     * Materialize the cell at grid position @p flat: base config with
     * the axis values applied (variant mutation runs after the fixed
     * axes, the seed offset after the variant so replications always
     * differ).
     */
    SweepCell cell(std::size_t flat) const;

  private:
    static std::size_t dim(std::size_t n) { return n ? n : 1; }

    SimConfig base_{};
    std::vector<SystemKind> systems_;
    std::vector<std::string> workloads_;
    std::vector<std::uint64_t> l1Sizes_;
    std::vector<std::uint64_t> l2Sizes_;
    std::vector<std::pair<unsigned, unsigned>> lineSizes_;
    std::vector<ConfigVariant> variants_;
    unsigned seeds_ = 1;
    Counter instructions_ = 2'000'000;
    std::optional<Counter> warmup_;
};

/**
 * Wall-clock accounting for one executed sweep cell, on the sweep's
 * own clock (startSeconds is measured from sweep launch). worker is a
 * dense 0-based index over the pool threads that actually ran cells,
 * stable enough to serve as a Chrome-trace track id.
 */
struct CellTiming
{
    double startSeconds = 0;
    double wallSeconds = 0;
    unsigned worker = 0;
    double instrsPerSec = 0; ///< includes warmup instructions
};

/**
 * Retry policy for cells that fail with a *transient* error (an
 * interrupted write, an injected ENOSPC). Deterministic failures —
 * invalid configs, corrupt traces, cancellations — are never
 * retried: they would fail identically again.
 */
struct RetryPolicy
{
    unsigned maxRetries = 0;    ///< extra attempts after the first
    double backoffSeconds = 0.0; ///< sleep backoff * 2^k before retry k

    bool any() const { return maxRetries > 0; }
};

/** How a cell's VM side ran (DESIGN.md §6, "Shared front ends"). */
enum class FrontEndUse : std::uint8_t
{
    Own,      ///< ran its own VM and shared nothing
    Recorded, ///< ran its VM and logged the front end for its group
    Replayed, ///< ran no VM: replayed its group's recorded front end
};

/**
 * How one sweep cell ended. Failed cells keep their slot in the
 * grid-ordered results table (with a default Results) so passing
 * cells' positions — and bytes — never depend on which others failed.
 */
struct CellOutcome
{
    bool ok = true;
    Error error{};          ///< set when !ok
    unsigned attempts = 1;  ///< total attempts (1 = no retries needed)
    bool fromJournal = false; ///< loaded from a checkpoint, not re-run
    FrontEndUse frontEnd = FrontEndUse::Own; ///< of the last attempt
};

/** Mean and spread of a metric across seed replications. */
struct SeedStats
{
    double mean = 0;
    double stddev = 0;
    double min = 0;
    double max = 0;
    unsigned seeds = 0;
};

/**
 * The completed sweep: every cell's Results in grid order. Lookups
 * are by CellIndex, so formatting code iterates the axes it swept and
 * never depends on execution order.
 */
class SweepResults
{
  public:
    SweepResults() = default;
    SweepResults(SweepSpec spec, std::vector<Results> results);
    SweepResults(SweepSpec spec, std::vector<Results> results,
                 std::vector<CellTiming> timings);
    SweepResults(SweepSpec spec, std::vector<Results> results,
                 std::vector<CellTiming> timings,
                 std::vector<CellOutcome> outcomes);

    std::size_t size() const { return results_.size(); }
    const SweepSpec &spec() const { return spec_; }

    /** Results at grid position @p flat. */
    const Results &
    at(std::size_t flat) const
    {
        return results_.at(flat);
    }

    /** Results at coordinates @p idx. */
    const Results &
    at(const CellIndex &idx) const
    {
        return results_.at(spec_.flatIndex(idx));
    }

    /** The materialized cell (config + labels) at @p flat. */
    SweepCell cellAt(std::size_t flat) const { return spec_.cell(flat); }

    /** Per-cell wall-clock timings; empty unless the runner recorded
     *  them (SweepRunner::run always does). */
    const std::vector<CellTiming> &timings() const { return timings_; }

    /** How cell @p flat ended; all-ok when outcomes were not recorded. */
    const CellOutcome &outcomeAt(std::size_t flat) const;

    /** True when cell @p flat produced a valid Results. */
    bool okAt(std::size_t flat) const { return outcomeAt(flat).ok; }

    /** Number of failed cells. */
    std::size_t failedCount() const;

    bool allOk() const { return failedCount() == 0; }

    /**
     * Emit one CSV row per cell in grid order: coordinates, status
     * ("ok"/"failed" + error message), and the headline metrics with
     * round-trip-exact (%.17g) doubles. This is the artifact the
     * checkpoint/resume machinery promises to reproduce byte-for-byte.
     */
    void writeCsv(std::ostream &os) const;

    /**
     * Summarize @p metric across the seed axis at @p idx (whose seed
     * coordinate is ignored) — the honest way to report numbers
     * affected by random TLB replacement.
     */
    SeedStats seedStats(CellIndex idx,
                        const std::function<double(const Results &)>
                            &metric) const;

    /**
     * Mean of @p metric across seed replications at @p idx. With the
     * default single seed this is exactly the cell's metric value.
     */
    double
    meanMetric(const CellIndex &idx,
               const std::function<double(const Results &)> &metric)
        const
    {
        return seedStats(idx, metric).mean;
    }

  private:
    SweepSpec spec_;
    std::vector<Results> results_;
    std::vector<CellTiming> timings_;
    std::vector<CellOutcome> outcomes_; ///< empty = every cell ok
};

class TraceCache; // trace/recorded.hh

/** frontEndGroups()'s id for a cell that shares with no other. */
inline constexpr std::size_t kNoFrontEndGroup = ~std::size_t{0};

/**
 * Group @p spec's cells by front-end key (DESIGN.md §6, "Shared front
 * ends"): the cell's SimConfig with l1, l2 and costs reset to their
 * defaults, its workload, and the spec's instruction count and warmup.
 * Only frontEndShareable() configs have a key. @return one dense group
 * id per grid position, or kNoFrontEndGroup for a cell whose key no
 * other cell shares.
 */
std::vector<std::size_t> frontEndGroups(const SweepSpec &spec);

/** Everything one executed cell produced, beyond its journal entry. */
struct CellExecution
{
    Results results;         ///< valid when outcome.ok
    CellOutcome outcome;
    IntervalSummary summary; ///< filled when interval sampling is on
    std::unique_ptr<LatencyCollector> latency; ///< when requested
};

/**
 * Executes single sweep cells with the runner's full policy stack —
 * fault injection, transient-failure retries, trace-fetch batching,
 * the shared recorded-trace cache, and the invariant audit — outside
 * the thread-pool machinery. SweepRunner's pool workers and the
 * sharded worker processes (core/shard.hh) both run cells through
 * this one path, so a cell's Results are byte-identical no matter
 * which execution strategy — in-process pool, N crash-prone worker
 * processes, or a resume after either — actually ran it.
 *
 * Cells of one frontEndGroups() group share a VM front end when the
 * runner attaches no event log, interval sampler, latency collector
 * or fault injection: the first member to run logs its VM's own cache
 * accesses, and once it succeeds every later member replays that log
 * through its own caches instead of running a VM (RunHooks::replay).
 * A member that finds no log yet runs its own VM; none ever waits. A
 * group's log is freed once each member has succeeded. Results are
 * byte-identical either way; CellOutcome::frontEnd says which ran.
 *
 * Holds references to the spec, observability options, and trace
 * cache; all must outlive the runner.
 */
class CellRunner
{
  public:
    /**
     * Per-call extensions for the caller's own machinery (telemetry,
     * graceful shutdown). All optional.
     */
    struct Hooks
    {
        /** Polled by the simulation loop; true cancels the cell. */
        const std::atomic<bool> *cancel = nullptr;

        /** Instruction-progress counter (live telemetry). */
        std::atomic<std::uint64_t> *progress = nullptr;

        /** Runs before each retry of a transient failure. */
        std::function<void()> onRetry;
    };

    /**
     * @param cache shared recorded-trace cache; nullptr = every cell
     *        generates its own trace.
     * @param wantLatency attach a per-cell LatencyCollector (stats
     *        dumps and the invariant audit consume it).
     */
    CellRunner(const SweepSpec &spec, const ObsOptions &obs,
               RetryPolicy retry, const FaultSpec &faults,
               std::size_t batchSize, bool verify, bool wantLatency,
               TraceCache *cache);

    /**
     * Run cell @p flat to a terminal outcome: success (retries
     * exhausted transient failures), or a structured failure in
     * CellExecution::outcome. Never throws for cell-level failures;
     * only infrastructure errors (an unwritable event log) propagate.
     */
    CellExecution run(std::size_t flat) const;
    CellExecution run(std::size_t flat, const Hooks &extra) const;

    /** True when this runner's cells may share front ends. */
    bool sharesFrontEnds() const { return frontEnds_ != nullptr; }

  private:
    class FrontEnds; // per-group logs, in sweep.cc

    /** run() with this cell's front-end role settled. */
    CellExecution runAttempts(std::size_t flat, const Hooks &extra,
                              ServiceLog *record,
                              const FrontEnd *replay) const;

    const SweepSpec &spec_;
    const ObsOptions &obs_;
    RetryPolicy retry_;
    const FaultSpec &faults_;
    std::size_t batchSize_;
    bool verify_;
    bool wantLatency_;
    TraceCache *cache_;
    std::shared_ptr<FrontEnds> frontEnds_; ///< null: no sharing
};

/**
 * Executes a SweepSpec's cells on a worker pool and collects the
 * grid-ordered SweepResults. Cells are fully independent (each builds
 * its own System from its own SimConfig), so the parallel result
 * table is identical to a serial run's.
 *
 * Failures are isolated per cell: a cell whose worker throws is marked
 * failed in the outcomes table (with the structured Error) and the
 * sweep continues — one corrupt trace or invalid variant never takes
 * down a campaign. Transient failures can be retried with backoff
 * (retry()), and completed cells checkpointed to a JSONL journal
 * (journal()/resume()) so a killed sweep restarts where it left off.
 * See docs/robustness.md.
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = all hardware threads, 1 = serial. */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Attach observability outputs to subsequent run() calls: JSONL
     * event logs and interval sampling per cell, plus a Chrome-trace
     * timeline and a stats-JSON dump written after the sweep finishes.
     */
    SweepRunner &
    observe(ObsOptions obs)
    {
        obs_ = std::move(obs);
        return *this;
    }

    const ObsOptions &observeOptions() const { return obs_; }

    /** Retry transiently failed cells per @p policy. */
    SweepRunner &
    retry(RetryPolicy policy)
    {
        retry_ = policy;
        return *this;
    }

    /**
     * Checkpoint each completed cell to the JSONL journal at @p path,
     * a one-owner ShardLog (core/shard.hh). With resume() set, cells
     * already recorded there (for the same spec — a fingerprint guards
     * against mixups) are loaded instead of re-run, and the final
     * results are byte-identical to an uninterrupted sweep's.
     */
    SweepRunner &
    journal(std::string path)
    {
        journalPath_ = std::move(path);
        return *this;
    }

    SweepRunner &
    resume(bool enable = true)
    {
        resume_ = enable;
        return *this;
    }

    /** Inject deterministic faults into every cell (testing). */
    SweepRunner &
    injectFaults(const FaultSpec &spec)
    {
        faults_ = spec;
        return *this;
    }

    /**
     * Trace-fetch batch size for every cell's simulation loop;
     * 0 = Simulator default, 1 = the scalar reference loop. Results
     * are identical either way.
     */
    SweepRunner &
    batchSize(std::size_t n)
    {
        batchSize_ = n;
        return *this;
    }

    /**
     * Budget (MiB) for the shared recorded-trace cache: each distinct
     * (workload, seed) trace in the sweep is generated once and every
     * cell replays the shared in-memory recording. Traces that don't
     * fit fall back to per-cell generation, so results never depend on
     * the budget. 0 disables the cache (every cell regenerates).
     */
    SweepRunner &
    traceCache(std::size_t mb)
    {
        traceCacheMb_ = mb;
        return *this;
    }

    /**
     * Audit every cell's Results with the InvariantChecker before
     * accepting it: a cell whose counters break a conservation or
     * Table-4 law is marked failed (ErrorCode::Internal) instead of
     * silently contributing wrong numbers to the sweep. After the
     * last cell, checkCacheIndependence() audits each frontEndGroups()
     * group, the law front-end sharing rests on; a violation fails
     * every member of the group the same way.
     */
    SweepRunner &
    verify(bool on)
    {
        verify_ = on;
        return *this;
    }

    /**
     * Honor SIGINT/SIGTERM (base/signals.hh) as a cooperative drain:
     * every cell polls shutdownToken() as its cancel token, so once a
     * shutdown signal arrives, in-flight cells are canceled at the
     * next poll boundary, not-yet-started cells are marked
     * Canceled without running, and run() returns normally with the
     * journal flushed — the caller exits kExitInterrupted and the
     * sweep resumes with --resume. The caller must have installed the
     * handler (installShutdownHandler()).
     */
    SweepRunner &
    gracefulShutdown(bool on)
    {
        graceful_ = on;
        return *this;
    }

    /**
     * Run every cell of @p spec. Cell failures land in the outcomes
     * table, never propagate out of run(); only infrastructure errors
     * (an unwritable journal, a resume-fingerprint mismatch) throw.
     * On more than one job, one member of every front-end group
     * starts before any sibling, so the siblings find its log.
     */
    SweepResults run(const SweepSpec &spec) const;

    /**
     * Escape hatch for work that needs more than a Results per cell
     * (e.g. page-table introspection): parallel map of fn(0..n-1)
     * preserving index order, on this runner's job count.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn) const
    {
        return parallelMap(jobs_, n, std::forward<Fn>(fn));
    }

  private:
    unsigned jobs_;
    ObsOptions obs_;
    RetryPolicy retry_;
    std::string journalPath_;
    bool resume_ = false;
    FaultSpec faults_;
    std::size_t batchSize_ = 0;     ///< 0 = Simulator default
    std::size_t traceCacheMb_ = 256; ///< 0 = cache disabled
    bool verify_ = false;           ///< audit each cell's Results
    bool graceful_ = false;         ///< drain on SIGINT/SIGTERM
};

/**
 * Order-independent digest of a spec's materialized cells (workloads,
 * configs, instruction counts). The journal header records it so a
 * resume against a *different* spec is rejected instead of silently
 * mixing incompatible results.
 */
std::uint64_t specFingerprint(const SweepSpec &spec);

/**
 * One sweep cell: run @p workload on @p config for @p instrs
 * instructions. Thin wrapper over runOnce() that exists so one-off
 * call sites read uniformly with sweep code.
 */
Results sweepCell(SimConfig config, const std::string &workload,
                  Counter instrs);

/**
 * Replicate a simulation across @p n_seeds seeds (config.seed,
 * config.seed+1, ...) and summarize @p metric over the runs.
 * Convenience wrapper over a single-cell SweepSpec with a seed axis;
 * runs serially.
 *
 * @param metric extractor, e.g. [](const Results &r){ return
 *        r.vmcpi(); }
 */
SeedStats runSeeds(SimConfig config, const std::string &workload,
                   Counter instrs, Counter warmup, unsigned n_seeds,
                   double (*metric)(const Results &));

} // namespace vmsim

#endif // VMSIM_CORE_SWEEP_HH
