#include "core/simulator.hh"

#include <algorithm>
#include <thread>

#include "base/handoff.hh"
#include "check/invariants.hh"
#include "core/factory.hh"
#include "trace/prefetch.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{

namespace
{

/** forceBackEndPipelineForTest(): -1 automatic, 0 inline, 1 pipelined. */
std::atomic<int> forcedPipeline{-1};

/** Pipelines @p vm's back end for one scope; leaving it drains. */
struct PipelineScope
{
    PipelineScope(VmSystem &vm, bool on) : vm(vm)
    {
        vm.pipelineBackEnd(on);
    }
    ~PipelineScope()
    {
        // A run that ends drained in endRun(); one that throws reports
        // its own exception, not a replay's.
        try {
            vm.pipelineBackEnd(false);
        } catch (...) {
        }
    }
    PipelineScope(const PipelineScope &) = delete;
    PipelineScope &operator=(const PipelineScope &) = delete;

    VmSystem &vm;
};

} // anonymous namespace

Simulator::Simulator(VmSystem &vm, TraceSource &trace,
                     Counter ctx_switch_interval)
    : vm_(vm), sources_{&trace}, ctxSwitchInterval_(ctx_switch_interval)
{}

Simulator::Simulator(VmSystem &vm,
                     const std::vector<TraceSource *> &sources,
                     Counter ctx_switch_interval, Counter core_quantum)
    : vm_(vm), sources_(sources),
      ctxSwitchInterval_(ctx_switch_interval), coreQuantum_(core_quantum)
{
    panicIf(sources_.empty(), "Simulator needs at least one source");
    for (TraceSource *src : sources_)
        panicIf(!src, "Simulator given a null trace source");
    panicIf(sources_.size() > 1 && coreQuantum_ == 0,
            "multicore Simulator needs a nonzero core quantum");
}

Counter
Simulator::run(Counter max_instrs)
{
    return batch_ <= 1 ? runScalar(max_instrs) : runBatched(max_instrs);
}

void
Simulator::pollCancel(Counter n)
{
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) {
        flushQuantum();
        executed_ += n;
        throwError(ErrorCode::Canceled, "simulator", "run canceled after ",
                   executed_, " instructions");
    }
}

void
Simulator::rotateCore()
{
    flushQuantum();
    quantumUsed_ = 0;
    quantumCredited_ = 0;
    curCore_ = static_cast<CoreId>((curCore_ + 1) % sources_.size());
}

Counter
Simulator::endRun(Counter n)
{
    vm_.pipelineBackEnd(false);
    flushQuantum();
    executed_ += n;
    noteProgress(executed_);
    return n;
}

Counter
Simulator::runScalar(Counter max_instrs)
{
    TraceRecord rec;
    Counter n = 0;
    // The paper's fundamental algorithm: translate + fetch every
    // instruction; translate + access data for loads/stores. All TLB
    // probing and page-table walking happens inside the VmSystem.
    Access a;
    while (n < max_instrs && sources_[curCore_]->next(rec)) {
        // Cooperative cancellation and progress publication: one
        // relaxed access every 2K instructions is noise next to the
        // TLB/cache probes.
        if ((n & 0x7ff) == 0 && (cancel_ || progress_)) {
            noteProgress(executed_ + n);
            pollCancel(n);
        }
        // The reference order every batched block head reproduces:
        // stamp, sample, then switch.
        vm_.setCurrentInstr(executed_ + n);
        if (sampler_)
            sampler_->tick(executed_ + n, vm_);
        if (ctxSwitchInterval_ && ++sinceSwitch_ >= ctxSwitchInterval_) {
            sinceSwitch_ = 0;
            vm_.contextSwitch(curCore_);
        }
        a.addr = rec.pc;
        a.core = curCore_;
        a.store = false;
        vm_.instRef(a);
        if (rec.isMemOp()) {
            a.addr = rec.daddr;
            a.store = rec.isStore();
            vm_.dataRef(a);
        }
        ++n;
        // Post-increment rotation: the instruction that fills the
        // quantum is the last one its core runs before the scheduler
        // moves on.
        if (multicore() && ++quantumUsed_ >= coreQuantum_)
            rotateCore();
    }
    return endRun(n);
}

bool
Simulator::pipelinable() const
{
    const int forced = forcedPipeline.load(std::memory_order_relaxed);
    if (sampler_ || forced == 0)
        return false;
    for (const TraceSource *src : sources_)
        if (!src->lendsStableRecords())
            return false;
    return forced == 1 || helperThreadFree();
}

Counter
Simulator::runBatched(Counter max_instrs)
{
    // Leaving the run, at endRun() or by a throw (a cancel poll
    // included), drains the worker before anything reads or resets the
    // caches and before a caller frees the records it reads.
    const PipelineScope pipeline(vm_, pipelinable());
    Counter n = 0;
    while (n < max_instrs) {
        // Hoisted cancel poll / progress store: once per block instead
        // of every 2K instructions.
        noteProgress(executed_ + n);
        pollCancel(n);
        const Counter at = executed_ + n;
        // Split the block at the end of the run, at the current core's
        // quantum boundary (so rotations match the scalar loop), at
        // the exact instruction whose scalar `++sinceSwitch_ >=
        // interval` check would fire, and at the sampler's next
        // boundary: a switch or a sample can then only fall due at a
        // block head. The scalar loop's first switch quantum is
        // interval-1 instructions (pre-increment), later ones exactly
        // interval; `due` reproduces that off-by-one.
        Counter room = max_instrs - n;
        if (multicore())
            room = std::min(room, coreQuantum_ - quantumUsed_);
        const bool due =
            ctxSwitchInterval_ && sinceSwitch_ + 1 >= ctxSwitchInterval_;
        if (ctxSwitchInterval_)
            room = std::min(room, due ? ctxSwitchInterval_
                                      : ctxSwitchInterval_ -
                                            sinceSwitch_ - 1);
        if (sampler_)
            room = std::min(room, sampler_->untilClose(at));
        const auto want =
            static_cast<std::size_t>(std::min<Counter>(room, batch_));
        // Fetch before the head work: like the scalar loop, a switch
        // or sample fires only when a next instruction exists, so a
        // trace that ends on a boundary ends the run switch-free.
        // Sources with contiguous storage (replay cursors) lend their
        // buffer directly; everything else fills the staging buffer.
        TraceSource &src = *sources_[curCore_];
        std::size_t got = 0;
        const TraceRecord *recs = src.lendBatch(want, got);
        if (!recs) {
            if (buf_.size() < batch_)
                buf_.resize(batch_);
            got = src.nextBatch(buf_.data(), want);
            recs = buf_.data();
        }
        if (got == 0)
            break;
        // The block head, in the scalar loop's order.
        vm_.setCurrentInstr(at);
        if (sampler_)
            sampler_->tick(at, vm_);
        if (due) {
            vm_.contextSwitch(curCore_);
            // The triggering instruction restarts the count at 0; the
            // rest of the block advances it (clamped above to at most
            // interval instructions, so no second switch).
            sinceSwitch_ = got - 1;
        } else if (ctxSwitchInterval_) {
            sinceSwitch_ += got;
        }
        // One virtual dispatch per block; the organization's
        // devirtualized refBlock() selects the observed or bare
        // monomorphized kernel and inlines its own handlers.
        AccessBlock blk;
        blk.recs = recs;
        blk.n = got;
        blk.firstInstr = at;
        blk.core = curCore_;
        vm_.refBlock(blk);
        n += got;
        if (multicore() && (quantumUsed_ += got) >= coreQuantum_)
            rotateCore();
    }
    return endRun(n);
}

System::System(const SimConfig &config)
    : config_(config)
{
    config_.validate().orThrow();
    physMem_ = std::make_unique<PhysMem>(config_.physMemBytes,
                                         config_.pageBits);
    mem_ = std::make_unique<MemSystem>(config_.l1, config_.l2,
                                       config_.seed, config_.unifiedL2);
    vm_ = makeVmSystem(config_, *mem_, *physMem_);
    // Arm the frame budget only after the organization has made its
    // page-table reservations, so the pool governs demand paging alone.
    if (config_.physFrames != 0) {
        physMem_->setBudget(config_.physFrames, config_.reclaimPolicy);
        vm_->enablePressure(*physMem_, config_.faultReadCycles,
                            config_.faultWritebackCycles,
                            config_.pageBits);
    }
}

System::~System() = default;

Results
System::run(TraceSource &trace, Counter max_instrs,
            const std::string &workload_name, Counter warmup_instrs)
{
    if (config_.cores > 1)
        return runMulticore(trace, max_instrs, workload_name,
                            warmup_instrs);
    Simulator sim(*vm_, trace, config_.ctxSwitchInterval);
    return finishRun(sim, max_instrs, workload_name, warmup_instrs);
}

Results
System::runMulticore(TraceSource &trace, Counter max_instrs,
                     const std::string &workload_name,
                     Counter warmup_instrs)
{
    const Counter total = warmup_instrs + max_instrs;
    // One recording feeds every core. When the caller already hands us
    // a fresh full-length replay cursor (the sweep trace cache does),
    // share its buffer instead of copying it record by record.
    std::shared_ptr<const RecordedTrace> recording;
    if (auto *cursor = dynamic_cast<ReplayCursor *>(&trace);
        cursor && cursor->position() == 0 &&
        cursor->trace().size() == total) {
        recording = cursor->shared();
    } else {
        recording = std::make_shared<const RecordedTrace>(
            RecordedTrace::record(trace, total, workload_name));
    }
    // Staggered wrapping cursors approximate independent address
    // spaces: each core replays the same workload from a different
    // phase, so the cores' working sets are disjoint in time while
    // total instruction volume stays exactly `total`.
    const std::size_t sz = recording->size();
    std::vector<std::unique_ptr<ReplayCursor>> cursors;
    std::vector<TraceSource *> sources;
    cursors.reserve(config_.cores);
    sources.reserve(config_.cores);
    for (unsigned c = 0; c < config_.cores; ++c) {
        const std::size_t start = sz ? (sz / config_.cores) * c : 0;
        cursors.push_back(
            std::make_unique<ReplayCursor>(recording, start, true));
        sources.push_back(cursors.back().get());
    }
    Simulator sim(*vm_, sources, config_.ctxSwitchInterval,
                  config_.coreQuantum);
    return finishRun(sim, max_instrs, workload_name, warmup_instrs);
}

Results
System::finishRun(Simulator &sim, Counter max_instrs,
                  const std::string &workload_name, Counter warmup_instrs)
{
    sim.setCancel(cancel_);
    sim.setProgress(progress_);
    if (batch_)
        sim.setBatchSize(batch_);
    // Observe only the measured region: events, intervals and latency
    // histograms from warmup would not reconcile with the (reset)
    // counters.
    vm_->attachEventSink(nullptr);
    vm_->attachLatency(nullptr);
    if (warmup_instrs > 0) {
        sim.run(warmup_instrs);
        mem_->resetStats();
        vm_->resetVmStats();
    }
    vm_->attachEventSink(sink_);
    if (latency_) {
        latency_->configure(config_.cores,
                            LatencyCosts{config_.costs.l1MissCycles,
                                         config_.costs.l2MissCycles,
                                         config_.costs.interruptCycles});
        vm_->attachLatency(latency_);
    }
    if (sampler_) {
        sampler_->configure(config_.costs, vm_->name(), workload_name);
        sampler_->attachLatency(latency_);
        sim.attachSampler(sampler_);
    }
    executed_ += sim.run(max_instrs);
    if (sampler_)
        sampler_->finish(sim.instructionsExecuted(), *vm_);
    if (sink_)
        sink_->flush();
    return Results(vm_->name(), workload_name, executed_, mem_->stats(),
                   vm_->vmStats(), config_.costs);
}

bool
frontEndShareable(const SimConfig &config)
{
    return cacheBlindVm(config.kind) && kindHasTlb(config.kind) &&
           config.cores == 1 && config.physFrames == 0 &&
           !config.unifiedL2;
}

namespace
{

/**
 * runOnce()'s RunHooks::replay path: the trace through the back end
 * alone (ServiceReplay) over a MemSystem of this config's geometry,
 * warmup first (its statistics discarded), as System::finishRun does.
 */
Results
replayFrontEnd(const SimConfig &config, TraceSource &trace, Counter instrs,
               const std::string &workload_name, Counter warmup,
               const FrontEnd &fe, const RunHooks &hooks)
{
    panicIf(fe.log.overflow, "replay of an overflowed service log");
    MemSystem mem(config.l1, config.l2, config.seed, false);
    ServiceReplay rep(mem);
    rep.start(fe.log);
    std::vector<TraceRecord> buf;
    Counter done = 0; // records replayed, warmup included
    auto phase = [&](Counter len) {
        Counter k = 0;
        while (k < len) {
            if (hooks.progress)
                hooks.progress->store(done, std::memory_order_relaxed);
            if (hooks.cancel &&
                hooks.cancel->load(std::memory_order_relaxed))
                throwError(ErrorCode::Canceled, "simulator",
                           "run canceled after ", done, " instructions");
            const auto want = static_cast<std::size_t>(
                std::min<Counter>(len - k, Simulator::kDefaultBatch));
            std::size_t got = 0;
            const TraceRecord *recs = trace.lendBatch(want, got);
            if (!recs) {
                buf.resize(Simulator::kDefaultBatch);
                got = trace.nextBatch(buf.data(), want);
                recs = buf.data();
            }
            if (got == 0)
                break;
            rep.block(recs, got, done);
            done += got;
            k += got;
        }
        rep.flush(done);
        return k;
    };
    phase(warmup);
    mem.resetStats();
    const Counter executed = phase(instrs);
    if (hooks.progress)
        hooks.progress->store(done, std::memory_order_relaxed);
    return Results(fe.results.system(), workload_name, executed,
                   mem.stats(), fe.results.vmStats(), config.costs);
}

} // anonymous namespace

Results
runOnce(const SimConfig &config, const std::string &workload,
        Counter instrs, std::optional<Counter> warmup_instrs)
{
    return runOnce(config, workload, instrs, warmup_instrs, RunHooks{});
}

namespace
{

std::atomic<unsigned> liveRuns{0};

/** Counts one runOnce() call in flight for its lifetime. */
struct InFlight
{
    InFlight() { liveRuns.fetch_add(1, std::memory_order_relaxed); }
    ~InFlight() { liveRuns.fetch_sub(1, std::memory_order_relaxed); }
    InFlight(const InFlight &) = delete;
    InFlight &operator=(const InFlight &) = delete;
};

} // anonymous namespace

unsigned
runsInFlight()
{
    return liveRuns.load(std::memory_order_relaxed);
}

bool
helperThreadFree()
{
    return helperThreadAffordable(std::max(1u, runsInFlight()),
                                  std::thread::hardware_concurrency());
}

void
forceBackEndPipelineForTest(std::optional<bool> on)
{
    forcedPipeline.store(on ? int{*on} : -1, std::memory_order_relaxed);
}

std::unique_ptr<TraceSource>
liveGenerator(std::unique_ptr<TraceSource> gen, const SimConfig &config,
              Counter records)
{
    // Multicore runs record their trace before simulating, so there is
    // nothing to overlap.
    if (config.cores > 1 || !helperThreadFree())
        return gen;
    return std::make_unique<PrefetchedTrace>(std::move(gen), records);
}

Results
runOnce(const SimConfig &config, const std::string &workload,
        Counter instrs, std::optional<Counter> warmup_instrs,
        const RunHooks &hooks)
{
    const InFlight counted;
    const Counter warmup = warmup_instrs.value_or(defaultWarmup(instrs));
    // The trace cache substitutes a replay cursor here; otherwise
    // generate the named workload. Either way, capture the display
    // name before any wrapping: wrappers are plain TraceSources with
    // no name of their own.
    std::unique_ptr<TraceSource> source;
    std::string name;
    if (hooks.makeTrace) {
        NamedTraceSource named = hooks.makeTrace();
        source = std::move(named.source);
        name = std::move(named.name);
    } else {
        auto trace = makeWorkload(workload, config.seed);
        name = trace->name();
        source = liveGenerator(std::move(trace), config, warmup + instrs);
    }
    if (hooks.wrapTrace)
        source = hooks.wrapTrace(std::move(source));
    panicIf((hooks.record || hooks.replay) &&
                (!frontEndShareable(config) || hooks.sink ||
                 hooks.sampler || hooks.latency || hooks.wrapTrace),
            "a shared front end needs a frontEndShareable() config and "
            "no observer or trace wrapper");
    panicIf(hooks.record && hooks.batch == 1,
            "recording a front end needs batched blocks, not the scalar "
            "loop");
    if (hooks.replay) {
        Results r = replayFrontEnd(config, *source, instrs, name, warmup,
                                   *hooks.replay, hooks);
        if (hooks.audit)
            hooks.audit(r);
        return r;
    }
    System system(config);
    system.vm().recordService(hooks.record);
    system.attachEventSink(hooks.sink);
    system.attachSampler(hooks.sampler);
    system.attachCancel(hooks.cancel);
    system.attachProgress(hooks.progress);
    system.attachLatency(hooks.latency);
    system.setBatchSize(hooks.batch);
    Results r = system.run(*source, instrs, name, warmup);
    if (hooks.audit)
        hooks.audit(r);
    return r;
}

} // namespace vmsim
