#include "check/diff.hh"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include <atomic>

#include "base/error.hh"
#include "base/random.hh"
#include "core/simulator.hh"
#include "fault/fault.hh"
#include "obs/event.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{

namespace
{

constexpr SystemKind kAllKinds[] = {
    SystemKind::Ultrix,     SystemKind::Mach,   SystemKind::Intel,
    SystemKind::Parisc,     SystemKind::Notlb,  SystemKind::Base,
    SystemKind::HwInverted, SystemKind::HwMips, SystemKind::Spur,
};

constexpr const char *kWorkloads[] = {"gcc", "vortex", "ijpeg"};

/// Fault-injector stream id shared by every leg of a case, so all
/// strategies see the identical per-record fault decisions.
constexpr std::uint64_t kFaultStream = 0xD1FF;

/** Outcome of one execution strategy: a result or an error code. */
struct Leg
{
    bool ok = false;
    Results r;
    ErrorCode code = ErrorCode::Unknown;
};

} // namespace

SimConfig
FuzzTuple::toConfig() const
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1.sizeBytes = l1Size;
    cfg.l1.lineSize = l1Line;
    cfg.l2.sizeBytes = l2Size;
    cfg.l2.lineSize = l2Line;
    cfg.tlbAsidBits = asidBits;
    if (tlbEntries)
        cfg.tlbEntries = tlbEntries;
    cfg.l2TlbEntries = l2TlbEntries;
    cfg.ctxSwitchInterval = ctxSwitch;
    cfg.seed = seed;
    cfg.cores = cores;
    if (coreQuantum)
        cfg.coreQuantum = coreQuantum;
    cfg.sharedL2Tlb = sharedL2Tlb;
    cfg.physFrames = physFrames;
    cfg.reclaimPolicy = reclaim;
    return cfg;
}

Json
FuzzTuple::toJson() const
{
    Json j = Json::object();
    j.set("index", index);
    j.set("system", kindName(kind));
    j.set("workload", workload);
    j.set("seed", seed);
    j.set("instrs", instrs);
    j.set("warmup", warmup);
    j.set("ctxSwitch", ctxSwitch);
    j.set("asidBits", asidBits);
    j.set("tlbEntries", tlbEntries);
    j.set("l2TlbEntries", l2TlbEntries);
    j.set("l1", static_cast<std::uint64_t>(l1Size));
    j.set("l1Line", l1Line);
    j.set("l2", static_cast<std::uint64_t>(l2Size));
    j.set("l2Line", l2Line);
    j.set("batch", static_cast<std::uint64_t>(batch));
    j.set("faults", faults);
    j.set("cores", cores);
    j.set("coreQuantum", coreQuantum);
    j.set("sharedL2Tlb", sharedL2Tlb);
    j.set("physFrames", physFrames);
    j.set("reclaim", reclaimPolicyName(reclaim));
    return j;
}

std::string
FuzzTuple::toString() const
{
    std::ostringstream oss;
    oss << "case " << index << ": " << kindName(kind) << "/" << workload
        << " seed=" << seed << " instrs=" << instrs << " warmup="
        << warmup << " ctx=" << ctxSwitch << " asid=" << asidBits
        << " tlb=" << tlbEntries << " l2tlb=" << l2TlbEntries
        << " batch=" << batch
        << (faults ? " faults" : "");
    if (cores > 1)
        oss << " cores=" << cores << " quantum=" << coreQuantum
            << (sharedL2Tlb ? " shared-l2tlb" : " private-l2tlb");
    if (physFrames)
        oss << " frames=" << physFrames << " reclaim="
            << reclaimPolicyName(reclaim);
    return oss.str();
}

Json
FuzzFailure::toJson() const
{
    Json j = Json::object();
    j.set("phase", phase);
    j.set("tuple", tuple.toJson());
    j.set("minimized", minimized.toJson());
    Json arr = Json::array();
    for (const CheckViolation &v : violations) {
        Json jv = Json::object();
        jv.set("law", v.law);
        jv.set("message", v.message);
        arr.push(std::move(jv));
    }
    j.set("violations", std::move(arr));
    return j;
}

Json
FuzzReport::toJson() const
{
    Json j = Json::object();
    j.set("seed", seed);
    j.set("cases", cases);
    j.set("lawsChecked", static_cast<std::uint64_t>(lawsChecked));
    j.set("ok", ok());
    Json arr = Json::array();
    for (const FuzzFailure &f : failures)
        arr.push(f.toJson());
    j.set("failures", std::move(arr));
    return j;
}

std::string
FuzzReport::toString() const
{
    std::ostringstream oss;
    oss << "fuzz: " << cases << " cases, " << lawsChecked
        << " laws checked, " << failures.size() << " failure"
        << (failures.size() == 1 ? "" : "s") << " (seed " << seed
        << ")";
    for (const FuzzFailure &f : failures) {
        oss << "\n  [" << f.phase << "] " << f.minimized.toString();
        for (const CheckViolation &v : f.violations)
            oss << "\n    " << v.toString();
    }
    return oss.str();
}

DiffRunner::DiffRunner(const DiffOptions &opts)
    : opts_(opts)
{
}

FuzzTuple
DiffRunner::generate(std::uint64_t index) const
{
    Random rng(opts_.seed + 0x9E3779B97F4A7C15ull * (index + 1));
    FuzzTuple t;
    t.index = index;
    t.kind = kAllKinds[rng.uniform(std::size(kAllKinds))];
    t.workload = kWorkloads[rng.uniform(std::size(kWorkloads))];
    t.seed = rng.next() | 1;
    t.instrs = 4000 + rng.uniform(5) * 4000;
    if (t.instrs > opts_.maxInstrs)
        t.instrs = opts_.maxInstrs;
    t.warmup = rng.chance(0.5) ? t.instrs / 4 : 0;
    static constexpr Counter kCtx[] = {0, 0, 997, 4096};
    t.ctxSwitch = kCtx[rng.uniform(std::size(kCtx))];
    static constexpr unsigned kAsid[] = {0, 0, 6};
    t.asidBits = kAsid[rng.uniform(std::size(kAsid))];
    // Small TLBs keep the FA slot index under fill/evict/erase
    // pressure; 0 leaves each kind's default geometry.
    static constexpr unsigned kTlb[] = {0, 0, 32, 64};
    t.tlbEntries = kTlb[rng.uniform(std::size(kTlb))];
    static constexpr unsigned kL2Tlb[] = {0, 0, 256};
    t.l2TlbEntries = kL2Tlb[rng.uniform(std::size(kL2Tlb))];
    static constexpr std::size_t kL1Sizes[] = {8192, 16384, 32768};
    t.l1Size = kL1Sizes[rng.uniform(std::size(kL1Sizes))];
    static constexpr unsigned kL1Lines[] = {16, 32, 64};
    t.l1Line = kL1Lines[rng.uniform(std::size(kL1Lines))];
    static constexpr std::size_t kL2Sizes[] = {262144, 1048576};
    t.l2Size = kL2Sizes[rng.uniform(std::size(kL2Sizes))];
    t.l2Line = t.l1Line << rng.uniform(2);
    if (t.l2Line > 128)
        t.l2Line = 128;
    static constexpr std::size_t kBatches[] = {2, 64, 1000, 4096};
    t.batch = kBatches[rng.uniform(std::size(kBatches))];
    t.faults = opts_.includeFaults && rng.chance(0.15);
    static constexpr unsigned kCores[] = {1, 1, 2, 4};
    t.cores = opts_.forceCores ? opts_.forceCores
                               : kCores[rng.uniform(std::size(kCores))];
    static constexpr Counter kQuantum[] = {500, 2000, 8192};
    t.coreQuantum = kQuantum[rng.uniform(std::size(kQuantum))];
    t.sharedL2Tlb = rng.chance(0.5);
    // Frame budgets tight enough to force steady-state eviction on
    // every workload; 0 leaves pressure off (the paper's default).
    static constexpr std::uint64_t kFrames[] = {0, 0, 96, 384};
    t.physFrames = kFrames[rng.uniform(std::size(kFrames))];
    static constexpr ReclaimPolicy kPolicies[] = {
        ReclaimPolicy::Fifo, ReclaimPolicy::Lru, ReclaimPolicy::Clock};
    t.reclaim = kPolicies[rng.uniform(std::size(kPolicies))];
    return t;
}

CheckReport
DiffRunner::runCase(const FuzzTuple &t) const
{
    CheckReport rep;
    SimConfig cfg = t.toConfig();
    Status st = cfg.validate();
    if (!rep.check(st.ok(), "config.valid", "generated config invalid: ",
                   st.ok() ? "" : st.error().toString()))
        return rep;

    FaultSpec spec;
    if (t.faults) {
        const double scale =
            1.0 / static_cast<double>(t.instrs + t.warmup + 1);
        spec.truncate = 0.5 * scale;
        spec.corrupt = 0.25 * scale;
        spec.seed = opts_.seed ^ (t.index * 0x9E3779B97F4A7C15ull);
    }

    auto runLeg = [&](std::size_t batch, RunHooks hooks) -> Leg {
        hooks.batch = batch;
        if (t.faults) {
            auto wrapped = std::move(hooks.wrapTrace);
            hooks.wrapTrace =
                [&spec, wrapped](std::unique_ptr<TraceSource> src)
                -> std::unique_ptr<TraceSource> {
                if (wrapped)
                    src = wrapped(std::move(src));
                return std::make_unique<FaultyTraceSource>(
                    std::move(src), spec, kFaultStream);
            };
        }
        Leg leg;
        try {
            leg.r = runOnce(cfg, t.workload, t.instrs, t.warmup, hooks);
            leg.ok = true;
        } catch (...) {
            leg.code = errorFromException(std::current_exception()).code;
        }
        return leg;
    };

    // Every strategy must match the scalar loop: same counters on
    // success, same error classification on (injected) failure.
    auto compareLegs = [&](const Leg &ref, const Leg &leg,
                           const std::string &phase) {
        CheckReport sub;
        if (ref.ok != leg.ok)
            sub.check(false, "outcome", "scalar ",
                      ref.ok ? "succeeded" : "failed", " but the ",
                      phase, " leg ", leg.ok ? "succeeded" : "failed");
        else if (!ref.ok)
            sub.check(ref.code == leg.code, "error-code", "scalar ",
                      errorCodeName(ref.code), " vs ", phase, " ",
                      errorCodeName(leg.code));
        else
            sub.merge(diffResults(ref.r, leg.r, "scalar", phase));
        rep.mergePrefixed(sub, phase + ".");
    };

    const Leg scalar = runLeg(1, RunHooks{});

    const Leg batched = runLeg(t.batch, RunHooks{});
    compareLegs(scalar, batched, "batched");

    CollectingSink sink;
    IntervalSampler sampler(std::max<Counter>(t.instrs / 8, 1000));
    RunHooks obs_hooks;
    obs_hooks.sink = &sink;
    obs_hooks.sampler = &sampler;
    const Leg observed = runLeg(t.batch, obs_hooks);
    compareLegs(scalar, observed, "observed");

    TraceCache cache(64u << 20);
    auto recorded =
        cache.acquire(t.workload, cfg.seed, t.instrs + t.warmup);
    if (recorded) {
        RunHooks cache_hooks;
        cache_hooks.makeTrace = [recorded]() {
            return NamedTraceSource{
                std::make_unique<ReplayCursor>(recorded),
                recorded->name()};
        };
        const Leg cached = runLeg(t.batch, cache_hooks);
        compareLegs(scalar, cached, "cached");
    }

    // Latency histograms and a live progress counter must be invisible
    // to the simulation: counters bit-identical to the bare scalar leg.
    LatencyCollector lat;
    std::atomic<Counter> progress{0};
    RunHooks lat_hooks;
    lat_hooks.latency = &lat;
    lat_hooks.progress = &progress;
    const Leg instrumented = runLeg(1, lat_hooks);
    compareLegs(scalar, instrumented, "latency");

    InvariantChecker checker(cfg);
    if (scalar.ok)
        rep.mergePrefixed(checker.check(scalar.r), "audit.");
    if (observed.ok)
        rep.mergePrefixed(checker.checkAll(observed.r, &sink.events(),
                                           &sampler.intervals()),
                          "observed.");
    if (instrumented.ok) {
        CheckReport sub;
        checker.checkLatency(instrumented.r, lat, sub);
        sub.check(progress.load() ==
                      t.warmup + instrumented.r.userInstrs(),
                  "progress-final", "final progress counter ",
                  progress.load(), " != warmup ", t.warmup,
                  " + measured ", instrumented.r.userInstrs());
        rep.mergePrefixed(sub, "latency.");
    }

    if (t.warmup == 0 && !t.faults && scalar.ok) {
        auto trace = makeWorkload(t.workload, cfg.seed);
        System sys(cfg);
        Results live = sys.run(*trace, t.instrs, trace->name(), 0);
        CheckReport sub;
        checkLiveTlb(sys.vm(), live.userInstrs(), sub);
        rep.mergePrefixed(sub, "live-tlb.");
    }

    return rep;
}

FuzzTuple
DiffRunner::minimize(FuzzTuple t) const
{
    auto stillFails = [&](const FuzzTuple &c) {
        return !runCase(c).ok();
    };
    auto tryApply = [&](FuzzTuple c) {
        if (stillFails(c))
            t = c;
    };

    if (t.faults) {
        FuzzTuple c = t;
        c.faults = false;
        tryApply(c);
    }
    if (t.physFrames) {
        FuzzTuple c = t;
        c.physFrames = 0;
        tryApply(c);
    }
    if (t.cores > 1) {
        FuzzTuple c = t;
        c.cores = 1;
        tryApply(c);
    }
    if (t.ctxSwitch) {
        FuzzTuple c = t;
        c.ctxSwitch = 0;
        tryApply(c);
    }
    if (t.asidBits) {
        FuzzTuple c = t;
        c.asidBits = 0;
        tryApply(c);
    }
    if (t.tlbEntries) {
        FuzzTuple c = t;
        c.tlbEntries = 0;
        tryApply(c);
    }
    if (t.l2TlbEntries) {
        FuzzTuple c = t;
        c.l2TlbEntries = 0;
        tryApply(c);
    }
    if (t.warmup) {
        FuzzTuple c = t;
        c.warmup = 0;
        tryApply(c);
    }
    if (t.workload != "gcc") {
        FuzzTuple c = t;
        c.workload = "gcc";
        tryApply(c);
    }
    while (t.instrs > 2000) {
        FuzzTuple c = t;
        c.instrs = t.instrs / 2;
        c.warmup = t.warmup ? c.instrs / 4 : 0;
        if (!stillFails(c))
            break;
        t = c;
    }
    return t;
}

FuzzReport
DiffRunner::run(unsigned cases) const
{
    FuzzReport report;
    report.seed = opts_.seed;
    report.cases = cases;
    for (unsigned i = 0; i < cases; ++i) {
        FuzzTuple t = generate(i);
        CheckReport cr = runCase(t);
        report.lawsChecked += cr.lawsChecked();
        if (cr.ok())
            continue;
        FuzzFailure f;
        f.tuple = t;
        f.minimized = minimize(t);
        const std::string &law = cr.violations().front().law;
        f.phase = law.substr(0, law.find('.'));
        f.violations = cr.violations();
        report.failures.push_back(std::move(f));
    }
    return report;
}

} // namespace vmsim
