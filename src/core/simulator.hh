/**
 * @file
 * The trace-driven simulator loop (paper Section 3.1) and the System
 * wrapper that wires a complete simulated machine from a SimConfig.
 */

#ifndef VMSIM_CORE_SIMULATOR_HH
#define VMSIM_CORE_SIMULATOR_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/results.hh"
#include "core/sim_config.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "obs/interval.hh"
#include "os/vm_system.hh"
#include "trace/trace.hh"

namespace vmsim
{

/**
 * The default warmup length for a measured run of @p instrs
 * instructions: one quarter. Every layer that resolves an unspecified
 * warmup (runOnce(), BenchOptions, the CLI) uses this single helper so
 * the default cannot drift between entry points again.
 */
constexpr Counter
defaultWarmup(Counter instrs)
{
    return instrs / 4;
}

/**
 * Drives a VmSystem from a TraceSource, exactly as the paper's
 * pseudocode: the VM system interposes its TLB lookups and page-table
 * walks around the cache accesses. Instructions are fetched from the
 * source in batches (one virtual call per batch instead of per
 * instruction); batches are split at run ends, context-switch points
 * and interval-sampler boundaries so the executed stream — including
 * every event, interval sample, and statistic — is bit-identical to
 * the one-at-a-time loop, which remains available via setBatchSize(1).
 *
 * The multicore form takes one TraceSource per simulated core and
 * interleaves them round-robin: each core runs core_quantum
 * instructions, then the scheduler rotates. Batches are additionally
 * split at quantum boundaries, so the scalar and batched multicore
 * paths execute the identical global instruction stream. Interval
 * samples and event stamps use the global instruction timebase, never
 * a core-local count.
 */
class Simulator
{
  public:
    /** Default trace-fetch batch size (records; 48 KiB of buffer). */
    static constexpr std::size_t kDefaultBatch = 4096;

    /**
     * @param ctx_switch_interval flush translation state (via
     *        VmSystem::contextSwitch()) every this many instructions;
     *        0 = never. Models time-sharing: the process is
     *        rescheduled with cold TLBs each quantum.
     */
    Simulator(VmSystem &vm, TraceSource &trace,
              Counter ctx_switch_interval = 0);

    /**
     * Multicore form: @p sources holds one trace source per core
     * (all non-null, one or more entries; not owned). The scheduler
     * runs @p core_quantum instructions per core before rotating to
     * the next. With a single source this is exactly the single-core
     * simulator. Context switches fire on the global timebase and
     * target whichever core is current.
     */
    Simulator(VmSystem &vm, const std::vector<TraceSource *> &sources,
              Counter ctx_switch_interval, Counter core_quantum);

    /**
     * Execute up to @p max_instrs user instructions (or until the
     * trace ends). May be called repeatedly; counts accumulate.
     * @return instructions executed by this call.
     */
    Counter run(Counter max_instrs);

    /** Total user instructions executed across all run() calls. */
    Counter instructionsExecuted() const { return executed_; }

    /**
     * Sample interval statistics during run() (nullptr detaches). The
     * sampler sees the instruction number of every boundary; it is not
     * owned and must outlive the simulator.
     */
    void attachSampler(IntervalSampler *sampler) { sampler_ = sampler; }

    /**
     * Cooperative cancellation: run() polls @p token at batch
     * boundaries (every ~2K instructions on the scalar path) and
     * throws VmsimError(Canceled) when it becomes true. Graceful
     * shutdown hands every sweep cell the SIGINT/SIGTERM flag here.
     * Not owned; nullptr detaches.
     */
    void setCancel(const std::atomic<bool> *token) { cancel_ = token; }

    /**
     * Live progress: run() stores the total instructions executed into
     * @p counter (relaxed) at the same boundaries the cancel token is
     * polled, so a telemetry thread can watch a run without touching
     * simulation state. Not owned; nullptr detaches.
     */
    void setProgress(std::atomic<Counter> *counter) { progress_ = counter; }

    /**
     * Records fetched per TraceSource::nextBatch() call. @p n <= 1
     * selects the reference one-instruction-at-a-time loop; results
     * are identical either way.
     */
    void setBatchSize(std::size_t n) { batch_ = n; }

    std::size_t batchSize() const { return batch_; }

  private:
    Counter runScalar(Counter max_instrs);
    Counter runBatched(Counter max_instrs);

    /**
     * More than one source: the quantum scheduler rotates cores and
     * credits per-core instruction slices. A single source does
     * neither, exactly like the pre-multicore simulator.
     */
    bool multicore() const { return sources_.size() > 1; }

    /** Throw Canceled (after crediting @p n) if cancellation is set. */
    void pollCancel(Counter n);

    /** Credit the finished quantum and move to the next core. */
    void rotateCore();

    /** Account @p n instructions of the ending run(); returns @p n. */
    Counter endRun(Counter n);

    /** Publish @p done instructions to the progress counter, if any. */
    void
    noteProgress(Counter done)
    {
        if (progress_)
            progress_->store(done, std::memory_order_relaxed);
    }

    /** Credit the uncredited part of the running quantum to its core. */
    void
    flushQuantum()
    {
        if (quantumUsed_ > quantumCredited_) {
            vm_.addCoreInstrs(curCore_, quantumUsed_ - quantumCredited_);
            quantumCredited_ = quantumUsed_;
        }
    }

    VmSystem &vm_;
    std::vector<TraceSource *> sources_; ///< one per core (not owned)
    Counter ctxSwitchInterval_;
    Counter sinceSwitch_ = 0;
    Counter executed_ = 0;
    CoreId curCore_ = 0;
    Counter coreQuantum_ = 0;      ///< instructions per scheduling slot
    Counter quantumUsed_ = 0;      ///< used within the current slot
    Counter quantumCredited_ = 0;  ///< part already in per-core stats
    IntervalSampler *sampler_ = nullptr;
    const std::atomic<bool> *cancel_ = nullptr;
    std::atomic<Counter> *progress_ = nullptr;
    std::size_t batch_ = kDefaultBatch;
    std::vector<TraceRecord> buf_; ///< batch staging (lazily sized)
};

/**
 * A complete simulated machine: physical memory, cache hierarchy, and
 * the configured VM organization, built from a SimConfig. Owns all the
 * pieces; run() drives it and snapshots Results.
 */
class System
{
  public:
    /**
     * Build and wire everything; throws VmsimError (InvalidConfig)
     * when SimConfig::validate() rejects the configuration.
     */
    explicit System(const SimConfig &config);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run @p max_instrs instructions of @p trace through the machine
     * and return the accounting. Repeated calls accumulate (the
     * machine is not reset between runs).
     *
     * @param workload_name label recorded in the Results
     * @param warmup_instrs instructions executed first to warm caches,
     *        TLBs and page tables; their statistics are discarded so
     *        compulsory misses don't pollute the measurement (the
     *        paper's 200M-instruction runs amortize cold-start; our
     *        shorter runs warm explicitly instead)
     */
    Results run(TraceSource &trace, Counter max_instrs,
                const std::string &workload_name = "trace",
                Counter warmup_instrs = 0);

    VmSystem &vm() { return *vm_; }
    MemSystem &mem() { return *mem_; }
    PhysMem &physMem() { return *physMem_; }
    const SimConfig &config() const { return config_; }

    /** Instructions executed so far. */
    Counter instructionsExecuted() const { return executed_; }

    /**
     * Stream trace events from the measured region of every subsequent
     * run() to @p sink (nullptr detaches). Warmup instructions are not
     * reported, so event counts reconcile exactly with the counters in
     * the returned Results. Not owned; must outlive the System.
     */
    void attachEventSink(EventSink *sink) { sink_ = sink; }

    /**
     * Sample interval statistics over the measured region of every
     * subsequent run() (nullptr detaches). run() configures the
     * sampler with the run's cost model and closes the final partial
     * interval before returning. Not owned; must outlive the System.
     */
    void attachSampler(IntervalSampler *sampler) { sampler_ = sampler; }

    /**
     * Cancellation token checked by every subsequent run(); see
     * Simulator::setCancel(). Not owned; nullptr detaches.
     */
    void attachCancel(const std::atomic<bool> *token) { cancel_ = token; }

    /**
     * Live progress counter updated by every subsequent run(); see
     * Simulator::setProgress(). Warmup instructions are included (the
     * counter reports work done, not statistics kept). Not owned;
     * nullptr detaches.
     */
    void attachProgress(std::atomic<Counter> *counter)
    {
        progress_ = counter;
    }

    /**
     * Collect per-episode latency and TLB-residency histograms over
     * the measured region of every subsequent run() (nullptr
     * detaches). run() configures the collector with the machine's
     * core count and cost model, so totals reconcile with the
     * returned Results. Not owned; must outlive the System.
     */
    void attachLatency(LatencyCollector *lat) { latency_ = lat; }

    /**
     * Trace-fetch batch size for every subsequent run(); 0 keeps the
     * Simulator default (kDefaultBatch), 1 forces the scalar loop.
     */
    void setBatchSize(std::size_t n) { batch_ = n; }

  private:
    /**
     * The cores > 1 path of run(): records the incoming trace (or
     * reuses an already-shared recording when the source is a fresh
     * full-length ReplayCursor), fans it out to one wrapping per-core
     * cursor at staggered offsets, and drives the quantum-scheduled
     * multicore simulator loop.
     */
    Results runMulticore(TraceSource &trace, Counter max_instrs,
                         const std::string &workload_name,
                         Counter warmup_instrs);

    /** The shared tail of run()/runMulticore() after sim construction. */
    Results finishRun(Simulator &sim, Counter max_instrs,
                      const std::string &workload_name,
                      Counter warmup_instrs);

    SimConfig config_;
    std::unique_ptr<PhysMem> physMem_;
    std::unique_ptr<MemSystem> mem_;
    std::unique_ptr<VmSystem> vm_;
    Counter executed_ = 0;
    EventSink *sink_ = nullptr;
    IntervalSampler *sampler_ = nullptr;
    const std::atomic<bool> *cancel_ = nullptr;
    std::atomic<Counter> *progress_ = nullptr;
    LatencyCollector *latency_ = nullptr;
    std::size_t batch_ = 0;
};

/**
 * Convenience one-shot: build the named synthetic workload and a
 * System from @p config, run @p instrs instructions, return Results.
 * @param warmup_instrs warmup length (statistics from warmup are
 *        discarded); nullopt selects defaultWarmup(@p instrs), i.e.
 *        one quarter. Pass an explicit 0 to skip warmup entirely.
 */
Results runOnce(const SimConfig &config, const std::string &workload,
                Counter instrs,
                std::optional<Counter> warmup_instrs = std::nullopt);

/**
 * True when runs of @p config that differ only in cache geometry and
 * prices (l1, l2, costs) may share one VM front end (DESIGN.md §6,
 * "Shared front ends"): one of the six TLB organizations (cacheBlindVm()
 * with a TLB; BASE's VM makes no cache access to share) on one core,
 * with no frame budget and a split L2, so that no VM decision reads a
 * cache outcome and the I and D cache sides share no state.
 */
bool frontEndShareable(const SimConfig &config);

/**
 * A recorded VM front end: the cache accesses one run's VM made on its
 * own behalf, and that run's Results, whose VmStats every replay
 * reports as its own.
 */
struct FrontEnd
{
    ServiceLog log;
    Results results;
};

/** A trace source together with the display name for its Results. */
struct NamedTraceSource
{
    std::unique_ptr<TraceSource> source;
    std::string name;
};

/** Observability / robustness attachments for runOnce(); all optional. */
struct RunHooks
{
    EventSink *sink = nullptr;
    IntervalSampler *sampler = nullptr;

    /** Cancellation token polled by the simulation loop (not owned). */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Live progress counter: the loop stores total instructions
     * executed (warmup included) at its cancel-poll boundaries — the
     * sweep telemetry thread reads it for throughput/ETA. Not owned.
     */
    std::atomic<Counter> *progress = nullptr;

    /**
     * Per-episode latency and TLB-residency histograms collected over
     * the measured region; see System::attachLatency(). Not owned.
     */
    LatencyCollector *latency = nullptr;

    /**
     * Wrap the workload's trace source before the run — the fault
     * injector hooks in here. Receives ownership, returns ownership.
     * Applied on top of makeTrace when both are set.
     */
    std::function<std::unique_ptr<TraceSource>(
        std::unique_ptr<TraceSource>)> wrapTrace;

    /**
     * Supply the trace source instead of generating the named workload
     * — the sweep trace cache hooks in here to hand out a ReplayCursor
     * over a shared recording. The returned name must match what the
     * generated source would report so Results stay identical.
     */
    std::function<NamedTraceSource()> makeTrace;

    /**
     * Post-run audit point: called with the finished Results before
     * runOnce() returns — the sweep runner installs the invariant
     * checker here so every cell self-verifies. Throw to fail the run.
     */
    std::function<void(const Results &)> audit;

    /** Trace-fetch batch size; 0 = default, 1 = scalar loop. */
    std::size_t batch = 0;

    /**
     * Shared front ends: log the VM's own cache accesses into *record
     * (not owned). Needs frontEndShareable(), a batch size other than
     * 1, and no sink, sampler, latency collector or trace wrapper.
     */
    ServiceLog *record = nullptr;

    /**
     * Run no VM: replay the trace merged with *replay's logged accesses
     * through this config's own caches, and report *replay's VmStats.
     * The recording run had this config but for l1, l2 and costs, and
     * the same workload, instructions and warmup. Not owned; same
     * preconditions as @c record.
     */
    const FrontEnd *replay = nullptr;
};

/** runOnce() with observability hooks attached to the measured run. */
Results runOnce(const SimConfig &config, const std::string &workload,
                Counter instrs, std::optional<Counter> warmup_instrs,
                const RunHooks &hooks);

/** runOnce() calls in flight across the process, on any thread. */
unsigned runsInFlight();

/**
 * The live source for a run of @p config over @p records records of
 * the generator @p gen: on one core, while prefetchAffordable() holds
 * for runsInFlight() and the host's hardware threads, @p gen behind a
 * PrefetchedTrace that generates ahead on its own thread; otherwise
 * @p gen itself. Either way the run sees the same records.
 */
std::unique_ptr<TraceSource>
liveGenerator(std::unique_ptr<TraceSource> gen, const SimConfig &config,
              Counter records);

} // namespace vmsim

#endif // VMSIM_CORE_SIMULATOR_HH
