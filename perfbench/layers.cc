/**
 * @file
 * The traced run: host time split by layer. One pass runs each cell
 * untraced through CellRunner::run and then again driving System
 * directly, with a span around every call into a layer; then isolation
 * legs replay the workload's recorded traces into one module at a
 * time through that module's public functions.
 *
 * Legs are not additive. They call the public, observed-capable entry
 * points, while the simulator runs fused bare kernels, so the tlb and
 * mem legs together can exceed the os.refblock leg they sit inside.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "harness.hh"

namespace perf
{

namespace
{

/** Keeps timed loops from being optimized away. */
volatile std::uint64_t gSink = 0;

/** Records fed to a module per refBlock call (the simulator's batch). */
constexpr std::size_t kBlock = Simulator::kDefaultBatch;

/** Longest per-workload recording a leg replays. */
constexpr Counter kLegRecords = 400'000;

/** Recording length of the ULTRIX/gcc multicore legs. */
constexpr Counter kMcLegRecords = 1'000'000;

/** Frame budget of the frame-pool leg: mc_pressure's middle budget. */
constexpr std::uint64_t kPoolFrames = 512_KiB >> 12;

/**
 * Spans kept in memory and written once at exit. A span's parent is
 * the innermost span open when it began; cell is the grid position
 * (-1 for legs).
 */
class Tracer
{
  public:
    struct Span
    {
        int id = 0;
        int parent = -1;
        long cell = -1;
        std::string name;
        double start = 0;
        double end = 0;
        double seconds() const { return end - start; }
    };

    int
    begin(std::string name, long cell)
    {
        Span s;
        s.id = static_cast<int>(spans_.size());
        s.parent = open_.empty() ? -1 : open_.back();
        s.cell = cell;
        s.name = std::move(name);
        s.start = nowSeconds();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.back().id);
        return spans_.back().id;
    }

    void
    end(int id)
    {
        spans_[id].end = nowSeconds();
        open_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per span: its duration minus the duration of its children. */
    std::vector<double>
    selfSeconds() const
    {
        std::vector<double> self(spans_.size());
        for (const Span &s : spans_) {
            self[s.id] += s.seconds();
            if (s.parent >= 0)
                self[s.parent] -= s.seconds();
        }
        return self;
    }

    void
    write(const std::string &path, const std::string &workload) const
    {
        ChromeTraceWriter out(path);
        const double epoch = spans_.empty() ? 0 : spans_.front().start;
        for (const Span &s : spans_)
            out.durationEvent(s.name, s.name.substr(0, s.name.find('.')),
                              (s.start - epoch) * 1e6, s.seconds() * 1e6,
                              ChromeTraceWriter::kWallPid, 0,
                              {{"id", std::to_string(s.id)},
                               {"parent", std::to_string(s.parent)},
                               {"cell", std::to_string(s.cell)},
                               {"workload", workload}});
        out.finish();
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, std::string name, long cell = -1)
        : t_(t), id_(t.begin(std::move(name), cell))
    {}
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/**
 * Forwarding trace source that accumulates the host time spent inside
 * the wrapped source. Only single-core runs may use it: runMulticore
 * shares a recording only when handed the ReplayCursor itself.
 */
class TimedSource final : public TraceSource
{
  public:
    explicit TimedSource(TraceSource &inner) : inner_(inner) {}

    bool
    next(TraceRecord &rec) override
    {
        const double t0 = nowSeconds();
        const bool ok = inner_.next(rec);
        seconds_ += nowSeconds() - t0;
        return ok;
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        const double t0 = nowSeconds();
        const std::size_t got = inner_.nextBatch(out, n);
        seconds_ += nowSeconds() - t0;
        return got;
    }

    const TraceRecord *
    lendBatch(std::size_t n, std::size_t &got) override
    {
        const double t0 = nowSeconds();
        const TraceRecord *p = inner_.lendBatch(n, got);
        seconds_ += nowSeconds() - t0;
        return p;
    }

    double seconds() const { return seconds_; }

  private:
    TraceSource &inner_;
    double seconds_ = 0;
};

const std::vector<SystemKind> &
allKinds()
{
    static const std::vector<SystemKind> kinds = [] {
        std::vector<SystemKind> v;
        for (int k = 0; k <= static_cast<int>(SystemKind::Spur); ++k)
            v.push_back(static_cast<SystemKind>(k));
        return v;
    }();
    return kinds;
}

double
perK(Counter events, Counter instrs)
{
    return instrs ? 1e3 * static_cast<double>(events) /
                        static_cast<double>(instrs)
                  : 0.0;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Feed @p n records to @p vm as core-0 blocks of the batch size. */
void
feedBlocks(VmSystem &vm, const TraceRecord *recs, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += kBlock) {
        AccessBlock blk;
        blk.recs = recs + i;
        blk.n = std::min(kBlock, n - i);
        vm.refBlock(blk);
    }
}

/** Unit of per-layer metric @p name, from its naming convention. */
std::string
unitOf(const std::string &name)
{
    auto has = [&name](const char *s) {
        return name.find(s) != std::string::npos;
    };
    if (has("_per_kinstr"))
        return "1/kinstr";
    if (has("ns_per_instr") || has("refblock"))
        return "ns/instr";
    if (has("_ns"))
        return "ns";
    if (has("_ms"))
        return "ms";
    if (has("_avg"))
        return "entries";
    return "ratio";
}

/**
 * The isolation legs. Each leg replays the workload's recordings (one
 * per trace workload, at most kLegRecords long) into one module and
 * returns named values; runTraced() takes each value's median over
 * repetitions.
 */
class Legs
{
  public:
    explicit Legs(const PerfWorkload &w)
        : w_(w), base_(w.spec.cell(0).config),
          seed_(w.spec.baseConfig().seed),
          legRecords_(std::min(kLegRecords, executedPerCell(w.spec))),
          mcRecords_(std::min(kMcLegRecords, executedPerCell(w.spec)))
    {}

    /** Run every leg once under spans of @p tr. */
    std::map<std::string, double>
    runAll(Tracer &tr)
    {
        std::map<std::string, double> out;
        {
            ScopedSpan s(tr, "trace.legs");
            traceLegs(out);
        }
        {
            ScopedSpan s(tr, "os.legs");
            osLegs(out);
        }
        {
            ScopedSpan s(tr, "tlb.legs");
            tlbLegs(out);
        }
        {
            ScopedSpan s(tr, "pt.legs");
            ptLegs(out);
        }
        {
            ScopedSpan s(tr, "mem.legs");
            memLegs(out);
        }
        {
            ScopedSpan s(tr, "core.mc_legs");
            mcLegs(out);
        }
        {
            ScopedSpan s(tr, "obs.legs");
            obsLegs(out);
        }
        return out;
    }

    /** Fetch share of the single-core ULTRIX/gcc run in mcLegs(). */
    double mcFetchShare() const { return mcFetchShare_; }

  private:
    /**
     * The workload's first cell as organization @p kind on one core:
     * the module legs feed core 0 only, and a multicore System::run
     * would re-record any cursor that is not a fresh full-length one.
     */
    SimConfig
    configFor(SystemKind kind) const
    {
        SimConfig c = base_;
        c.kind = kind;
        c.cores = 1;
        return c;
    }

    /** Generate, record, replay and verify each workload's trace. */
    void
    traceLegs(std::map<std::string, double> &out)
    {
        double gen = 0, rec = 0, replay = 0, integrity = 0;
        std::vector<TraceRecord> buf(kBlock);
        traces_.clear();
        for (const std::string &wl : w_.spec.workloadAxis()) {
            auto g = makeWorkload(wl, seed_);
            double t0 = nowSeconds();
            for (Counter done = 0; done < legRecords_;)
                done += g->nextBatch(
                    buf.data(), std::min<Counter>(kBlock, legRecords_ - done));
            gen += nowSeconds() - t0;
            gSink = gSink + buf[0].pc;

            g = makeWorkload(wl, seed_);
            t0 = nowSeconds();
            auto recorded = std::make_shared<const RecordedTrace>(
                RecordedTrace::record(*g, legRecords_, g->name()));
            rec += nowSeconds() - t0;

            ReplayCursor cursor(recorded);
            std::size_t got = 0;
            std::uint64_t sum = 0;
            t0 = nowSeconds();
            while (const TraceRecord *p = cursor.lendBatch(kBlock, got)) {
                if (got == 0)
                    break;
                for (std::size_t i = 0; i < got; ++i)
                    sum += p[i].pc;
            }
            replay += nowSeconds() - t0;
            gSink = gSink + sum;

            t0 = nowSeconds();
            recorded->verifyIntegrity().orThrow();
            integrity += nowSeconds() - t0;
            traces_.push_back(std::move(recorded));
        }
        const double n = static_cast<double>(legRecords_ * traces_.size());
        out["trace.gen_ns_per_instr"] = gen / n * 1e9;
        out["trace.record_ns_per_instr"] = rec / n * 1e9;
        out["trace.replay_ns_per_instr"] = replay / n * 1e9;
        out["check.integrity_ms"] =
            integrity / static_cast<double>(traces_.size()) * 1e3;
    }

    /** Seconds of bare (or @p lat-observed) refBlock past a 1/4 warmup. */
    double
    refBlockSeconds(const SimConfig &cfg, LatencyCollector *lat,
                    Counter &instrs)
    {
        double total = 0;
        for (const auto &t : traces_) {
            System sys(cfg);
            if (lat) {
                lat->configure(cfg.cores,
                               LatencyCosts{cfg.costs.l1MissCycles,
                                            cfg.costs.l2MissCycles,
                                            cfg.costs.interruptCycles});
                sys.vm().attachLatency(lat);
            }
            const std::size_t warm = t->size() / 4;
            feedBlocks(sys.vm(), t->records().data(), warm);
            const double t0 = nowSeconds();
            feedBlocks(sys.vm(), t->records().data() + warm,
                       t->size() - warm);
            total += nowSeconds() - t0;
            instrs += t->size() - warm;
        }
        return total;
    }

    /** System::run over the same records and warmup split. */
    double
    systemRunSeconds(const SimConfig &cfg)
    {
        double total = 0;
        for (const auto &t : traces_) {
            System sys(cfg);
            ReplayCursor cursor(t);
            const Counter warm = t->size() / 4;
            sys.run(cursor, warm, t->name(), 0);
            const double t0 = nowSeconds();
            sys.run(cursor, t->size() - warm, t->name(), 0);
            total += nowSeconds() - t0;
        }
        return total;
    }

    /**
     * refBlock per organization, then the simulator loop's own cost:
     * System::run minus refBlock on identical records and machine
     * state, over the grid's organizations.
     */
    void
    osLegs(std::map<std::string, double> &out)
    {
        const std::vector<SystemKind> &grid = w_.spec.systemAxis();
        double loop = 0;
        Counter loopInstrs = 0;
        for (SystemKind k : allKinds()) {
            Counter n = 0;
            const double ref = refBlockSeconds(configFor(k), nullptr, n);
            out[std::string("os.refblock_ns.") + kindName(k)] =
                ref / static_cast<double>(n) * 1e9;
            if (std::find(grid.begin(), grid.end(), k) != grid.end()) {
                loop += systemRunSeconds(configFor(k)) - ref;
                loopInstrs += n;
            }
        }
        out["core.loop_ns_per_instr"] =
            loop / static_cast<double>(loopInstrs) * 1e9;

        LatencyCollector lat;
        Counter n = 0;
        const double s =
            refBlockSeconds(configFor(SystemKind::Ultrix), &lat, n);
        out["os.refblock_obs_ns"] = s / static_cast<double>(n) * 1e9;
    }

    /**
     * Probe-and-insert over every reference with split I/D TLBs;
     * @p flush_every > 0 adds invalidateAll() at that instruction
     * interval. Returns seconds; counts lookups and misses.
     */
    double
    tlbPass(const TlbParams &p, Counter flush_every, Counter &lookups,
            Counter &misses, bool collect)
    {
        const unsigned pb = base_.pageBits;
        double total = 0;
        for (const auto &t : traces_) {
            Tlb itlb(p, seed_), dtlb(p, seed_ ^ 1);
            const double t0 = nowSeconds();
            Counter sinceFlush = 0;
            for (const TraceRecord &r : t->records()) {
                if (flush_every && ++sinceFlush >= flush_every) {
                    sinceFlush = 0;
                    itlb.invalidateAll();
                    dtlb.invalidateAll();
                }
                const Vpn iv = r.pc >> pb;
                if (!itlb.lookup(iv)) {
                    itlb.insert(iv);
                    if (collect)
                        missVpns_.push_back(iv);
                }
                if (r.isMemOp()) {
                    const Vpn dv = r.daddr >> pb;
                    if (!dtlb.lookup(dv)) {
                        dtlb.insert(dv);
                        if (collect) {
                            missVpns_.push_back(dv);
                            dMissVpns_.push_back(dv);
                        }
                    }
                }
            }
            total += nowSeconds() - t0;
            lookups += itlb.accesses() + dtlb.accesses();
            misses += itlb.misses() + dtlb.misses();
        }
        return total;
    }

    void
    tlbLegs(std::map<std::string, double> &out)
    {
        missVpns_.clear();
        dMissVpns_.clear();
        Counter lookups = 0, misses = 0;
        double s = tlbPass(tlbParamsFor(SystemKind::Ultrix, base_), 0,
                           lookups, misses, true);
        out["tlb.lookup_ns"] = ratio(s, lookups) * 1e9;
        out["tlb.miss_ratio"] = ratio(misses, lookups);

        SimConfig mc = base_;
        mc.tlbEntries = kMcTlbEntries;
        mc.tlbProtectedSlots = kMcTlbProtected;
        lookups = misses = 0;
        s = tlbPass(tlbParamsFor(SystemKind::Ultrix, mc), kMcCtxSwitch,
                    lookups, misses, false);
        out["tlb.churn_ns"] = ratio(s, lookups) * 1e9;
    }

    void
    ptLegs(std::map<std::string, double> &out)
    {
        PhysMem hptMem(base_.physMemBytes, base_.pageBits);
        HashedPageTable hpt(hptMem, base_.hptRatio, base_.pageBits);
        std::vector<Addr> chain;
        Counter depth = 0;
        double t0 = nowSeconds();
        for (Vpn v : dMissVpns_) {
            chain.clear();
            depth += hpt.walk(v, chain);
        }
        const double hptS = nowSeconds() - t0;

        PhysMem intelMem(base_.physMemBytes, base_.pageBits);
        IntelPageTable ipt(intelMem, base_.pageBits);
        Addr sum = 0;
        t0 = nowSeconds();
        for (Vpn v : dMissVpns_)
            sum += ipt.leafEntryAddr(v);
        const double intelS = nowSeconds() - t0;
        gSink = gSink + sum;

        const double walks = static_cast<double>(dMissVpns_.size());
        out["pt.hashed_walk_ns"] = ratio(hptS, walks) * 1e9;
        out["pt.hashed_chain_avg"] = ratio(static_cast<double>(depth), walks);
        out["pt.intel_leaf_ns"] = ratio(intelS, walks) * 1e9;
    }

    void
    memLegs(std::map<std::string, double> &out)
    {
        double s = 0;
        Counter accesses = 0, l1 = 0, l2 = 0;
        for (const auto &t : traces_) {
            MemSystem mem(base_.l1, base_.l2, base_.seed, base_.unifiedL2);
            const double t0 = nowSeconds();
            for (const TraceRecord &r : t->records()) {
                mem.instFetch(r.pc, AccessClass::User);
                if (r.isMemOp())
                    mem.dataAccess(r.daddr, kDataBytes, r.isStore(),
                                   AccessClass::User);
            }
            s += nowSeconds() - t0;
            const ClassCounters &i = mem.stats().instOf(AccessClass::User);
            const ClassCounters &d = mem.stats().dataOf(AccessClass::User);
            accesses += i.accesses + d.accesses;
            l1 += i.l1Misses + d.l1Misses;
            l2 += i.l2Misses + d.l2Misses;
        }
        out["mem.access_ns"] = ratio(s, accesses) * 1e9;
        out["mem.l1_miss_ratio"] = ratio(l1, accesses);
        out["mem.l2_miss_ratio"] = ratio(l2, l1);

        // Page touches at refill completion: the TLB-miss VPN stream.
        FramePool pool(kPoolFrames, ReclaimPolicy::Lru);
        Counter evictions = 0;
        const double t0 = nowSeconds();
        for (Vpn v : missVpns_) {
            if (pool.resident(v)) {
                pool.touch(v);
                continue;
            }
            if (pool.size() >= pool.capacity()) {
                pool.evict(v);
                ++evictions;
            }
            pool.insert(v);
        }
        const double touches = static_cast<double>(missVpns_.size());
        out["mem.frame_pool_ns"] = ratio(nowSeconds() - t0, touches) * 1e9;
        out["mem.evict_ratio"] =
            ratio(static_cast<double>(evictions), touches);
    }

    /**
     * ULTRIX/gcc on 1, 2 and 4 cores, each handed a fresh full-length
     * ReplayCursor so runMulticore shares the one recording instead of
     * re-recording it inside the timed region. One warm run per core
     * count, then the median of three.
     */
    void
    mcLegs(std::map<std::string, double> &out)
    {
        SimConfig cfg;
        cfg.kind = SystemKind::Ultrix;
        cfg.l1 = CacheParams{64_KiB, 64};
        cfg.l2 = CacheParams{1_MiB, 128};
        cfg.ctxSwitchInterval = 50'000;
        cfg.seed = seed_;
        auto gen = makeWorkload("gcc", seed_);
        const std::string name = gen->name();
        auto rec = std::make_shared<const RecordedTrace>(
            RecordedTrace::record(*gen, mcRecords_, name));
        const Counter warm = mcRecords_ / 5;
        for (unsigned cores : {1u, 2u, 4u}) {
            cfg.cores = cores;
            std::vector<double> times;
            for (int rep = 0; rep < 4; ++rep) {
                System sys(cfg);
                ReplayCursor cursor(rec);
                TimedSource timed(cursor);
                const bool wrap = cores == 1 && rep == 0;
                const double t0 = nowSeconds();
                sys.run(wrap ? static_cast<TraceSource &>(timed) : cursor,
                        mcRecords_ - warm, name, warm);
                const double dt = nowSeconds() - t0;
                if (wrap)
                    mcFetchShare_ = ratio(timed.seconds(), dt);
                else if (rep > 0)
                    times.push_back(dt);
            }
            out["core.mc_ns_per_instr.c" + std::to_string(cores)] =
                median(times) / static_cast<double>(mcRecords_) * 1e9;
        }
    }

    /** Seconds of System::run on one cell with the chosen observers. */
    double
    observedRunSeconds(const SimConfig &cfg, bool latency, bool interval)
    {
        const auto &t = traces_.front();
        System sys(cfg);
        LatencyCollector lat;
        IntervalSampler sampler(kObservedInterval);
        if (latency)
            sys.attachLatency(&lat);
        if (interval)
            sys.attachSampler(&sampler);
        ReplayCursor cursor(t);
        const Counter warm = t->size() / 4;
        const double t0 = nowSeconds();
        sys.run(cursor, t->size() - warm, t->name(), warm);
        return nowSeconds() - t0;
    }

    /** Each organization's first cell, bare vs one or both observers. */
    void
    obsLegs(std::map<std::string, double> &out)
    {
        double bare = 0, lat = 0, itv = 0, both = 0;
        for (SystemKind k : w_.spec.systemAxis()) {
            const SimConfig cfg = configFor(k);
            bare += observedRunSeconds(cfg, false, false);
            lat += observedRunSeconds(cfg, true, false);
            itv += observedRunSeconds(cfg, false, true);
            both += observedRunSeconds(cfg, true, true);
        }
        out["obs.overhead_ratio"] = ratio(both, bare);
        out["obs.latency_share"] = ratio(lat - bare, both);
        out["obs.interval_share"] = ratio(itv - bare, both);
    }

    const PerfWorkload &w_;
    SimConfig base_;
    std::uint64_t seed_;
    Counter legRecords_;
    Counter mcRecords_;
    std::vector<std::shared_ptr<const RecordedTrace>> traces_;
    std::vector<Vpn> missVpns_;  ///< I+D TLB-miss stream (page touches)
    std::vector<Vpn> dMissVpns_; ///< D-TLB-miss stream (walks)
    double mcFetchShare_ = 0;
};

} // anonymous namespace

RunReport
runTraced(const PerfWorkload &w, double seconds,
          const std::map<std::string, std::string> *expected,
          const std::string &trace_path)
{
    const double start = nowSeconds();
    const SweepSpec &spec = w.spec;
    const std::size_t n = spec.numCells();
    const Counter instrs = spec.instructionCount();
    const Counter executed = executedPerCell(spec);
    RunReport out;
    out.digests.assign(n, 0);
    Tracer tr;

    CellBench bench(w);
    {
        ScopedSpan s(tr, "setup");
        bench.setup();
    }
    TraceCache *cache = bench.cache();

    // Each cell runs untraced through CellRunner::run, then traced: the
    // same sequence (trace source, System, observers, run, in-cell
    // audit) driven directly, one span per call. Back-to-back pairs
    // keep host drift out of the traced/untraced ratios.
    double untraced = 0, fetch = 0, fetchRun = 0;
    Counter instrsAll = 0, tlbMisses = 0, pteLoads = 0, interrupts = 0,
            shootdowns = 0, majorFaults = 0;
    for (std::size_t flat = 0; flat < n; ++flat) {
        const SweepCell cell = spec.cell(flat);
        const long id = static_cast<long>(flat);
        ++out.attempted;
        try {
            double t0 = nowSeconds();
            const CellExecution ex = bench.run(flat);
            untraced += nowSeconds() - t0;
            const std::string why =
                auditCell(spec, flat, ex, expected, out.digests[flat]);
            if (!why.empty())
                throw std::runtime_error(why);

            Results r;
            {
                ScopedSpan cellSpan(tr, "cell", id);
                std::unique_ptr<TraceSource> source;
                std::string name;
                std::shared_ptr<const RecordedTrace> recorded;
                {
                    ScopedSpan s(tr, "trace.source", id);
                    if (cache) {
                        recorded = cache->acquire(
                            cell.workload, cell.config.seed, executed);
                        name = recorded->name();
                        source = std::make_unique<ReplayCursor>(recorded);
                    } else {
                        auto gen =
                            makeWorkload(cell.workload, cell.config.seed);
                        name = gen->name();
                        source = std::move(gen);
                    }
                }
                std::unique_ptr<System> sys;
                {
                    ScopedSpan s(tr, "core.build", id);
                    sys = std::make_unique<System>(cell.config);
                }
                LatencyCollector lat;
                IntervalSampler sampler(kObservedInterval);
                if (w.observed) {
                    ScopedSpan s(tr, "obs.attach", id);
                    sys->attachLatency(&lat);
                    sys->attachSampler(&sampler);
                }
                TimedSource timed(*source);
                const bool single = cell.config.cores == 1;
                t0 = nowSeconds();
                {
                    ScopedSpan s(tr, "core.run", id);
                    r = sys->run(single ? timed : *source, instrs, name,
                                 executed - instrs);
                }
                if (single) {
                    fetch += timed.seconds();
                    fetchRun += nowSeconds() - t0;
                }
                if (w.observed) {
                    {
                        ScopedSpan s(tr, "check.audit", id);
                        InvariantChecker(cell.config)
                            .checkAll(r, nullptr, nullptr, &lat)
                            .orThrow();
                    }
                    if (recorded) {
                        ScopedSpan s(tr, "check.integrity", id);
                        recorded->verifyIntegrity().orThrow();
                    }
                }
            }
            if (!w.observed) {
                // The plain run's audit, made after its timed region.
                ScopedSpan s(tr, "check.audit", id);
                InvariantChecker(cell.config).check(r).orThrow();
            }
            if (resultsDigest(r) != out.digests[flat])
                throw std::runtime_error(
                    "traced digest " + hex64(resultsDigest(r)) +
                    " != untraced " + hex64(out.digests[flat]));
            const VmStats &vm = r.vmStats();
            instrsAll += r.userInstrs();
            tlbMisses += vm.itlbMisses + vm.dtlbMisses;
            pteLoads += vm.pteLoads;
            interrupts += vm.interrupts;
            shootdowns += vm.shootdownsSent;
            majorFaults += vm.majorFaults;
        } catch (const std::exception &e) {
            ++out.failed;
            out.problems.push_back(cellLabel(spec, flat) + ": " + e.what());
        }
    }

    // Isolation legs, repeated while the run's time budget lasts.
    Legs legs(w);
    std::map<std::string, std::vector<double>> legValues;
    do {
        for (const auto &[name, v] : legs.runAll(tr))
            legValues[name].push_back(v);
    } while (nowSeconds() - start < seconds);
    std::map<std::string, double> m;
    for (const auto &[name, vs] : legValues)
        m[name] = median(vs);

    // Total and self time per span name.
    const std::vector<double> self = tr.selfSeconds();
    std::map<std::string, std::pair<double, double>> spans;
    for (const Tracer::Span &s : tr.spans()) {
        spans[s.name].first += s.seconds();
        spans[s.name].second += self[s.id];
    }
    std::fprintf(stderr, "  %-22s %12s %12s\n", "span", "total_ms",
                 "self_ms");
    for (const auto &[name, ts] : spans)
        std::fprintf(stderr, "  %-22s %12.3f %12.3f\n", name.c_str(),
                     ts.first * 1e3, ts.second * 1e3);

    const double perCellMs = 1e3 / static_cast<double>(n);
    m["trace.fetch_share"] =
        fetchRun > 0 ? fetch / fetchRun : legs.mcFetchShare();
    m["os.tlb_misses_per_kinstr"] = perK(tlbMisses, instrsAll);
    m["os.pte_loads_per_kinstr"] = perK(pteLoads, instrsAll);
    m["os.interrupts_per_kinstr"] = perK(interrupts, instrsAll);
    m["core.build_ms"] = spans["core.build"].first * perCellMs;
    m["core.cell_overhead_ms"] =
        (untraced - spans["core.run"].first) * perCellMs;
    m["core.shootdowns_per_kinstr"] = perK(shootdowns, instrsAll);
    m["core.major_faults_per_kinstr"] = perK(majorFaults, instrsAll);
    m["check.audit_ms"] = spans["check.audit"].first * perCellMs;
    m["bench.tracing_overhead"] = ratio(spans["cell"].first, untraced) - 1.0;

    for (const auto &[name, v] : m)
        out.metrics.push_back({name, v, unitOf(name)});
    if (!trace_path.empty())
        tr.write(trace_path, w.name);
    return out;
}

} // namespace perf
