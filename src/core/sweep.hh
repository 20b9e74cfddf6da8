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
 * Typical use (see docs/sweeps.md and bench/vmcpi_sweep.hh):
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
#include <memory>
#include <optional>
#include <string>
#include <utility>
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

    /** Prometheus text-exposition file, atomically rewritten every
     *  heartbeat (--metrics-out). */
    std::string metricsOut;

    /** True when any live-telemetry output was requested. */
    bool
    telemetry() const
    {
        return progressSeconds > 0 || !progressOut.empty() ||
               !metricsOut.empty();
    }

    bool
    any() const
    {
        return !traceEvents.empty() || !chromeTrace.empty() ||
               !statsJson.empty() || interval != 0 || telemetry();
    }
};

/**
 * Command-line options shared by the bench binaries:
 *   --full             run the complete paper grid
 *   --csv              emit CSV instead of aligned text
 *   --instructions=N   instructions per simulation point
 *   --warmup=N         warmup instructions (stats discarded);
 *                      defaults to one quarter of the measured
 *                      instructions (defaultWarmup())
 *   --seed=N           workload/replacement base seed
 *   --seeds=N          seed replications per cell (seed, seed+1, ...)
 *   --jobs=N           worker threads for the sweep (default: all
 *                      hardware threads; 1 = serial)
 *   --trace-events=F   write per-cell JSONL event logs to F
 *   --chrome-trace=F   write a Chrome-trace/Perfetto timeline to F
 *   --stats-json=F     write per-cell stats + timing registry to F
 *   --interval=N       sample interval statistics every N instructions
 *   --progress[=S]     live sweep telemetry every S seconds (default
 *                      2); heartbeats go to stderr unless
 *                      --progress-out redirects them
 *   --progress-out=F   append JSONL telemetry heartbeats to F
 *   --metrics-out=F    rewrite a Prometheus text exposition at F on
 *                      every heartbeat (atomic rename)
 *   --retries=N        retry transiently failed cells up to N times
 *   --retry-backoff=S  base backoff seconds between retries
 *   --cell-timeout=S   cancel any cell running longer than S seconds
 *   --journal=F        checkpoint completed cells to JSONL file F
 *   --resume           skip cells already completed in the journal
 *   --inject-faults=S  fault spec, e.g. corrupt=0.01,throw=0.01,seed=7
 *   --batch=N          trace-fetch batch size (1 = scalar loop)
 *   --trace-cache-mb=N shared recorded-trace cache budget in MiB
 *                      (default 256; 0 disables the cache)
 *   --cores=N          simulated cores sharing the page table
 *                      (default 1 = the legacy single-core machine)
 *   --core-quantum=N   instructions per core scheduling slot
 *                      (default: SimConfig's 50,000)
 *   --private-l2tlb    give each core a private L2 TLB slice instead
 *                      of the default single shared L2 TLB
 *   --phys-mb=N        cap physical memory at N MiB of frames; the
 *                      VM system evicts and takes major faults under
 *                      pressure (default: unlimited, the paper model)
 *   --phys-mb-list=A,B sweep axis of --phys-mb values (benches that
 *                      sweep pressure, e.g. bench_pressure)
 *   --reclaim=P        frame reclaim policy: fifo, lru, or clock
 *   --check            audit every cell's Results with the
 *                      invariant checker (failures mark the cell)
 *   --fuzz=N           run N differential-fuzz cases (seeded from
 *                      --seed) before the sweep; failures are fatal
 *   --shard-dir=D      run as one worker of a crash-tolerant sharded
 *                      sweep coordinated through directory D
 *                      (docs/robustness.md)
 *   --shard-owner=ID   this worker's shard identity (default: pid)
 *   --lease-seconds=S  reclaim another worker's claimed cell after its
 *                      lease has been silent for S seconds
 * Unknown arguments are fatal() so typos don't silently run the
 * wrong experiment.
 */
struct BenchOptions
{
    bool full = false;
    bool csv = false;
    Counter instructions = 2'000'000;
    std::optional<Counter> warmup; ///< unset = defaultWarmup(instructions)
    std::uint64_t seed = 12345;
    unsigned seeds = 1;
    unsigned jobs = 0; ///< 0 = hardware_concurrency
    ObsOptions obs;
    unsigned retries = 0;      ///< transient-failure retries per cell
    double retryBackoff = 0.0; ///< base seconds between retries
    double cellTimeout = 0.0;  ///< per-cell wall-clock budget; 0 = none
    std::string journal;       ///< checkpoint path; empty = off
    bool resume = false;       ///< load the journal before running
    FaultSpec faults;          ///< inactive unless --inject-faults
    std::size_t batch = 0;     ///< trace-fetch batch; 0 = default
    std::size_t traceCacheMb = 256; ///< trace-cache budget; 0 = off
    bool check = false;        ///< audit every cell's Results
    unsigned fuzz = 0;         ///< differential-fuzz cases; 0 = off
    std::string shardDir;      ///< sharded-sweep directory; empty = off
    std::string shardOwner;    ///< shard worker id; empty = "pid<pid>"
    double leaseSeconds = 30.0; ///< stale shard leases expire after this
    unsigned cores = 1;        ///< simulated cores (1 = legacy machine)
    Counter coreQuantum = 0;   ///< scheduler slot; 0 = SimConfig default
    bool sharedL2Tlb = true;   ///< one shared L2 TLB vs per-core slices
    std::uint64_t physMb = 0;  ///< frame-budget MiB; 0 = unlimited
    std::vector<std::uint64_t> physMbList; ///< --phys-mb-list axis
    ReclaimPolicy reclaim = ReclaimPolicy::Fifo;

    /** The --phys-mb budget in frames for @p page_bits pages. */
    std::uint64_t
    physFramesFor(unsigned page_bits) const
    {
        return (physMb << 20) >> page_bits;
    }

    /**
     * The effective warmup length: --warmup=N or the project-wide
     * default of one quarter of the measured instructions.
     */
    Counter
    resolvedWarmup() const
    {
        return warmup.value_or(defaultWarmup(instructions));
    }

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
 * invalid configs, corrupt traces, timeouts — are never retried: they
 * would fail identically again.
 */
struct RetryPolicy
{
    unsigned maxRetries = 0;    ///< extra attempts after the first
    double backoffSeconds = 0.0; ///< sleep backoff * 2^k before retry k

    bool any() const { return maxRetries > 0; }
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
 * Holds references to the spec, observability options, and trace
 * cache; all must outlive the runner.
 */
class CellRunner
{
  public:
    /**
     * Per-call extensions for the caller's own machinery (watchdog,
     * telemetry, graceful shutdown). All optional.
     */
    struct Hooks
    {
        /** Polled by the simulation loop; true cancels the cell. */
        const std::atomic<bool> *cancel = nullptr;

        /** Instruction-progress counter (live telemetry). */
        std::atomic<std::uint64_t> *progress = nullptr;

        /** Runs at the start of every attempt (arm a watchdog). */
        std::function<void()> onAttempt;

        /** Runs before each retry of a transient failure. */
        std::function<void()> onRetry;

        /**
         * Rewrites a failure before the retry decision — the watchdog
         * turns a Canceled from its own cancel token into a Timeout
         * here. A classification that clears Error::transient
         * suppresses the retry.
         */
        std::function<void(Error &)> classify;
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

  private:
    const SweepSpec &spec_;
    const ObsOptions &obs_;
    RetryPolicy retry_;
    const FaultSpec &faults_;
    std::size_t batchSize_;
    bool verify_;
    bool wantLatency_;
    TraceCache *cache_;
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
 * (retry()), runaway cells canceled by a wall-clock watchdog
 * (cellTimeout()), and completed cells checkpointed to a JSONL journal
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
     * Cancel any cell still running after @p seconds of wall clock;
     * the cell is marked failed with a Timeout error. 0 disables.
     */
    SweepRunner &
    cellTimeout(double seconds)
    {
        cellTimeoutSeconds_ = seconds;
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
     * silently contributing wrong numbers to the sweep.
     */
    SweepRunner &
    verify(bool on)
    {
        verify_ = on;
        return *this;
    }

    /**
     * Honor SIGINT/SIGTERM (base/signals.hh) as a cooperative drain:
     * once a shutdown signal arrives, in-flight cells are canceled at
     * the next poll boundary, not-yet-started cells are marked
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
    double cellTimeoutSeconds_ = 0.0;
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
