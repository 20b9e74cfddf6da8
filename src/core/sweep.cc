#include "core/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/signals.hh"
#include "base/stats.hh"
#include "check/invariants.hh"
#include "core/shard.hh"
#include "core/simulator.hh"
#include "obs/exporters.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "trace/recorded.hh"
#include "trace/synthetic/workloads.hh"

namespace vmsim
{

std::vector<std::uint64_t>
paperL1Sizes(bool full)
{
    if (full)
        return {1_KiB, 2_KiB, 4_KiB, 8_KiB, 16_KiB, 32_KiB, 64_KiB,
                128_KiB};
    return {1_KiB, 4_KiB, 16_KiB, 64_KiB, 128_KiB};
}

std::vector<std::uint64_t>
paperL2Sizes(bool full)
{
    if (full)
        return {1_MiB, 2_MiB, 4_MiB};
    return {1_MiB, 4_MiB};
}

std::vector<std::pair<unsigned, unsigned>>
paperLineSizes(bool full)
{
    if (full) {
        std::vector<std::pair<unsigned, unsigned>> combos;
        for (unsigned l1 : {16u, 32u, 64u, 128u})
            for (unsigned l2 : {16u, 32u, 64u, 128u})
                if (l2 >= l1)
                    combos.emplace_back(l1, l2);
        return combos;
    }
    return {{16, 32}, {32, 64}, {64, 128}, {128, 128}};
}

std::vector<Cycles>
paperInterruptCosts()
{
    return {10, 50, 200};
}

namespace
{

/** Comma-separated strict-u64 list ("8,16,32") for axis flags. */
std::vector<std::uint64_t>
parseU64List(const char *s, const std::string &what)
{
    std::vector<std::uint64_t> vals;
    std::string item;
    std::istringstream iss(s);
    fatalIf(*s == '\0', what, " needs a comma-separated list");
    while (std::getline(iss, item, ','))
        vals.push_back(parseU64(item.c_str(), what).orThrow());
    return vals;
}

} // anonymous namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--full") == 0) {
            opts.full = true;
        } else if (std::strcmp(arg, "--csv") == 0) {
            opts.csv = true;
        } else if (std::strncmp(arg, "--instructions=", 15) == 0) {
            opts.instructions =
                parseU64(arg + 15, "--instructions").orThrow();
            fatalIf(opts.instructions == 0,
                    "--instructions must be positive");
        } else if (std::strncmp(arg, "--warmup=", 9) == 0) {
            opts.warmup = parseU64(arg + 9, "--warmup").orThrow();
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            opts.seed = parseU64(arg + 7, "--seed").orThrow();
        } else if (std::strncmp(arg, "--seeds=", 8) == 0) {
            opts.seeds = parseU32(arg + 8, "--seeds").orThrow();
            fatalIf(opts.seeds == 0, "--seeds must be positive");
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            opts.jobs = parseU32(arg + 7, "--jobs").orThrow();
        } else if (std::strncmp(arg, "--trace-events=", 15) == 0) {
            opts.obs.traceEvents = arg + 15;
            fatalIf(opts.obs.traceEvents.empty(),
                    "--trace-events needs a file path");
        } else if (std::strncmp(arg, "--chrome-trace=", 15) == 0) {
            opts.obs.chromeTrace = arg + 15;
            fatalIf(opts.obs.chromeTrace.empty(),
                    "--chrome-trace needs a file path");
        } else if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            opts.obs.statsJson = arg + 13;
            fatalIf(opts.obs.statsJson.empty(),
                    "--stats-json needs a file path");
        } else if (std::strncmp(arg, "--interval=", 11) == 0) {
            opts.obs.interval =
                parseU64(arg + 11, "--interval").orThrow();
            fatalIf(opts.obs.interval == 0,
                    "--interval must be positive");
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.obs.progressSeconds = 2.0;
        } else if (std::strncmp(arg, "--progress=", 11) == 0) {
            opts.obs.progressSeconds =
                parseF64(arg + 11, "--progress").orThrow();
            fatalIf(opts.obs.progressSeconds <= 0,
                    "--progress period must be positive seconds");
        } else if (std::strncmp(arg, "--progress-out=", 15) == 0) {
            opts.obs.progressOut = arg + 15;
            fatalIf(opts.obs.progressOut.empty(),
                    "--progress-out needs a file path");
        } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
            opts.obs.metricsOut = arg + 14;
            fatalIf(opts.obs.metricsOut.empty(),
                    "--metrics-out needs a file path");
        } else if (std::strncmp(arg, "--retries=", 10) == 0) {
            opts.retries = parseU32(arg + 10, "--retries").orThrow();
        } else if (std::strncmp(arg, "--retry-backoff=", 16) == 0) {
            opts.retryBackoff =
                parseF64(arg + 16, "--retry-backoff").orThrow();
            fatalIf(opts.retryBackoff < 0,
                    "--retry-backoff must be >= 0");
        } else if (std::strncmp(arg, "--cell-timeout=", 15) == 0) {
            opts.cellTimeout =
                parseF64(arg + 15, "--cell-timeout").orThrow();
            fatalIf(opts.cellTimeout < 0,
                    "--cell-timeout must be >= 0");
        } else if (std::strncmp(arg, "--journal=", 10) == 0) {
            opts.journal = arg + 10;
            fatalIf(opts.journal.empty(), "--journal needs a file path");
        } else if (std::strcmp(arg, "--resume") == 0) {
            opts.resume = true;
        } else if (std::strncmp(arg, "--inject-faults=", 16) == 0) {
            opts.faults = FaultSpec::parse(arg + 16).orThrow();
        } else if (std::strncmp(arg, "--batch=", 8) == 0) {
            opts.batch = parseU64(arg + 8, "--batch").orThrow();
            fatalIf(opts.batch == 0,
                    "--batch must be positive (1 = scalar loop)");
        } else if (std::strncmp(arg, "--trace-cache-mb=", 17) == 0) {
            opts.traceCacheMb =
                parseU64(arg + 17, "--trace-cache-mb").orThrow();
        } else if (std::strncmp(arg, "--cores=", 8) == 0) {
            opts.cores = parseU32(arg + 8, "--cores").orThrow();
            fatalIf(opts.cores == 0, "--cores must be positive");
        } else if (std::strncmp(arg, "--core-quantum=", 15) == 0) {
            opts.coreQuantum =
                parseU64(arg + 15, "--core-quantum").orThrow();
            fatalIf(opts.coreQuantum == 0,
                    "--core-quantum must be positive");
        } else if (std::strcmp(arg, "--private-l2tlb") == 0) {
            opts.sharedL2Tlb = false;
        } else if (std::strncmp(arg, "--phys-mb=", 10) == 0) {
            opts.physMb = parseU64(arg + 10, "--phys-mb").orThrow();
            fatalIf(opts.physMb == 0,
                    "--phys-mb must be positive (omit the flag for "
                    "unlimited frames)");
        } else if (std::strncmp(arg, "--phys-mb-list=", 15) == 0) {
            opts.physMbList = parseU64List(arg + 15, "--phys-mb-list");
        } else if (std::strncmp(arg, "--reclaim=", 10) == 0) {
            opts.reclaim = parseReclaimPolicy(arg + 10).orThrow();
        } else if (std::strcmp(arg, "--check") == 0) {
            opts.check = true;
        } else if (std::strncmp(arg, "--fuzz=", 7) == 0) {
            opts.fuzz = parseU32(arg + 7, "--fuzz").orThrow();
            fatalIf(opts.fuzz == 0, "--fuzz must be positive");
        } else if (std::strncmp(arg, "--shard-dir=", 12) == 0) {
            opts.shardDir = arg + 12;
            fatalIf(opts.shardDir.empty(),
                    "--shard-dir needs a directory path");
        } else if (std::strncmp(arg, "--shard-owner=", 14) == 0) {
            opts.shardOwner = arg + 14;
            fatalIf(opts.shardOwner.empty(),
                    "--shard-owner needs an identifier");
        } else if (std::strncmp(arg, "--lease-seconds=", 16) == 0) {
            opts.leaseSeconds =
                parseF64(arg + 16, "--lease-seconds").orThrow();
            fatalIf(opts.leaseSeconds <= 0,
                    "--lease-seconds must be positive");
        } else {
            fatal("unknown argument '", arg,
                  "' (expected --full, --csv, --instructions=N, "
                  "--warmup=N, --seed=N, --seeds=N, --jobs=N, "
                  "--trace-events=F, --chrome-trace=F, --stats-json=F, "
                  "--interval=N, --progress[=S], --progress-out=F, "
                  "--metrics-out=F, --retries=N, --retry-backoff=S, "
                  "--cell-timeout=S, --journal=F, --resume, "
                  "--inject-faults=SPEC, --batch=N, "
                  "--trace-cache-mb=N, --cores=N, --core-quantum=N, "
                  "--private-l2tlb, --phys-mb=N, --phys-mb-list=A,B, "
                  "--reclaim=P, --check, --fuzz=N, --shard-dir=D, "
                  "--shard-owner=ID, --lease-seconds=S)");
        }
    }
    fatalIf(opts.resume && opts.journal.empty(),
            "--resume requires --journal=F");
    fatalIf(!opts.shardOwner.empty() && opts.shardDir.empty(),
            "--shard-owner requires --shard-dir=D");
    fatalIf(!opts.shardDir.empty() && !opts.journal.empty(),
            "--shard-dir and --journal are mutually exclusive (the "
            "shard directory holds the per-worker journals)");
    return opts;
}

std::size_t
SweepSpec::numCells() const
{
    return systemDim() * workloadDim() * l1Dim() * l2Dim() * lineDim() *
           variantDim() * seedDim();
}

std::size_t
SweepSpec::flatIndex(const CellIndex &idx) const
{
    panicIf(idx.system >= systemDim() || idx.workload >= workloadDim() ||
                idx.l1 >= l1Dim() || idx.l2 >= l2Dim() ||
                idx.line >= lineDim() || idx.variant >= variantDim() ||
                idx.seed >= seedDim(),
            "CellIndex out of range for this SweepSpec");
    std::size_t flat = idx.system;
    flat = flat * workloadDim() + idx.workload;
    flat = flat * l1Dim() + idx.l1;
    flat = flat * l2Dim() + idx.l2;
    flat = flat * lineDim() + idx.line;
    flat = flat * variantDim() + idx.variant;
    flat = flat * seedDim() + idx.seed;
    return flat;
}

CellIndex
SweepSpec::unflatten(std::size_t flat) const
{
    panicIf(flat >= numCells(), "flat index out of range");
    CellIndex idx;
    idx.seed = flat % seedDim();
    flat /= seedDim();
    idx.variant = flat % variantDim();
    flat /= variantDim();
    idx.line = flat % lineDim();
    flat /= lineDim();
    idx.l2 = flat % l2Dim();
    flat /= l2Dim();
    idx.l1 = flat % l1Dim();
    flat /= l1Dim();
    idx.workload = flat % workloadDim();
    flat /= workloadDim();
    idx.system = flat;
    return idx;
}

SweepCell
SweepSpec::cell(std::size_t flat) const
{
    SweepCell cell;
    cell.flat = flat;
    cell.index = unflatten(flat);
    const CellIndex &i = cell.index;

    SimConfig cfg = base_;
    if (!systems_.empty())
        cfg.kind = systems_[i.system];
    if (!l1Sizes_.empty())
        cfg.l1.sizeBytes = l1Sizes_[i.l1];
    if (!l2Sizes_.empty())
        cfg.l2.sizeBytes = l2Sizes_[i.l2];
    if (!lineSizes_.empty()) {
        cfg.l1.lineSize = lineSizes_[i.line].first;
        cfg.l2.lineSize = lineSizes_[i.line].second;
    }
    if (!variants_.empty() && variants_[i.variant].apply)
        variants_[i.variant].apply(cfg);
    // Seed offset last so replications differ even if a variant
    // overrides the seed.
    cfg.seed += i.seed;

    cell.config = cfg;
    cell.workload = workloads_.empty() ? "gcc" : workloads_[i.workload];
    return cell;
}

SweepResults::SweepResults(SweepSpec spec, std::vector<Results> results)
    : SweepResults(std::move(spec), std::move(results), {}, {})
{}

SweepResults::SweepResults(SweepSpec spec, std::vector<Results> results,
                           std::vector<CellTiming> timings)
    : SweepResults(std::move(spec), std::move(results),
                   std::move(timings), {})
{}

SweepResults::SweepResults(SweepSpec spec, std::vector<Results> results,
                           std::vector<CellTiming> timings,
                           std::vector<CellOutcome> outcomes)
    : spec_(std::move(spec)), results_(std::move(results)),
      timings_(std::move(timings)), outcomes_(std::move(outcomes))
{
    panicIf(results_.size() != spec_.numCells(),
            "SweepResults size does not match its spec's grid");
    panicIf(!timings_.empty() && timings_.size() != results_.size(),
            "SweepResults timings do not match its spec's grid");
    panicIf(!outcomes_.empty() && outcomes_.size() != results_.size(),
            "SweepResults outcomes do not match its spec's grid");
}

const CellOutcome &
SweepResults::outcomeAt(std::size_t flat) const
{
    static const CellOutcome kOk{};
    panicIf(flat >= results_.size(), "cell index out of range");
    return outcomes_.empty() ? kOk : outcomes_[flat];
}

std::size_t
SweepResults::failedCount() const
{
    std::size_t n = 0;
    for (const CellOutcome &o : outcomes_)
        if (!o.ok)
            ++n;
    return n;
}

namespace
{

/** Minimal CSV quoting: wrap and double-quote when needed. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // anonymous namespace

void
SweepResults::writeCsv(std::ostream &os) const
{
    os << "cell,system,workload,l1_bytes,l2_bytes,l1_line,l2_line,"
          "interrupt_cycles,variant,seed,status,error,"
          "mcpi,vmcpi,interrupt_cpi,total_cpi\n";
    char num[32];
    for (std::size_t i = 0; i < results_.size(); ++i) {
        const SweepCell cell = spec_.cell(i);
        const CellOutcome &o = outcomeAt(i);
        const std::vector<ConfigVariant> &vs = spec_.variantAxis();
        os << i << ',' << kindName(cell.config.kind) << ','
           << csvField(cell.workload) << ',' << cell.config.l1.sizeBytes
           << ',' << cell.config.l2.sizeBytes << ','
           << cell.config.l1.lineSize << ',' << cell.config.l2.lineSize
           << ',' << cell.config.costs.interruptCycles << ','
           << csvField(vs.empty() ? "" : vs[cell.index.variant].label)
           << ',' << cell.config.seed << ','
           << (o.ok ? "ok" : "failed") << ','
           << csvField(o.ok ? "" : o.error.toString());
        if (o.ok) {
            const Results &r = results_[i];
            const double metrics[] = {r.mcpi(), r.vmcpi(),
                                      r.interruptCpi(), r.totalCpi()};
            for (double m : metrics) {
                // %.17g round-trips IEEE doubles exactly — the byte
                // identity resume tests depend on.
                std::snprintf(num, sizeof(num), "%.17g", m);
                os << ',' << num;
            }
            os << '\n';
        } else {
            os << ",,,,\n";
        }
    }
}

SeedStats
SweepResults::seedStats(CellIndex idx,
                        const std::function<double(const Results &)>
                            &metric) const
{
    Distribution dist;
    for (std::size_t k = 0; k < spec_.seedDim(); ++k) {
        idx.seed = k;
        dist.sample(metric(at(idx)));
    }
    SeedStats s;
    s.mean = dist.mean();
    s.stddev = dist.stddev();
    s.min = dist.min();
    s.max = dist.max();
    s.seeds = static_cast<unsigned>(spec_.seedDim());
    return s;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : ThreadPool::defaultThreads())
{}

namespace
{

/** Event-log path for cell @p flat: unsuffixed when the sweep is one cell. */
std::string
cellEventPath(const std::string &base, std::size_t flat, std::size_t n)
{
    return n == 1 ? base : base + ".cell" + std::to_string(flat);
}

/**
 * Render the sweep's wall-clock schedule as a Chrome trace: one
 * complete slice per cell on its worker's track of the pid-0 timeline.
 */
void
writeWallTrace(const std::string &path, const SweepResults &res)
{
    ChromeTraceWriter writer(path);
    for (std::size_t i = 0; i < res.size(); ++i) {
        const SweepCell cell = res.cellAt(i);
        const CellTiming &t = res.timings()[i];
        char ips[32];
        std::snprintf(ips, sizeof(ips), "%.4g", t.instrsPerSec);
        writer.durationEvent(
            std::string(kindName(cell.config.kind)) + "/" + cell.workload,
            "sweep-cell", t.startSeconds * 1e6, t.wallSeconds * 1e6,
            ChromeTraceWriter::kWallPid, static_cast<int>(t.worker),
            {{"system", kindName(cell.config.kind)},
             {"workload", cell.workload},
             {"cell", std::to_string(i)},
             {"instrs_per_sec", ips}});
    }
    writer.finish();
}

/**
 * Dump per-cell results + timings (and interval spreads when sampled)
 * plus sweep-level wall-time distributions as one JSON document.
 */
void
writeSweepStats(const std::string &path, const SweepResults &res,
                const std::vector<IntervalSummary> &summaries,
                const std::vector<std::unique_ptr<LatencyCollector>>
                    &lats)
{
    StatsRegistry registry;
    Distribution &wall = registry.distribution("sweep.wall_seconds");
    Distribution &ips = registry.distribution("sweep.instrs_per_sec");

    Json cells = Json::array();
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellTiming &t = res.timings()[i];
        wall.sample(t.wallSeconds);
        ips.sample(t.instrsPerSec);

        Json row = Json::object();
        row.set("cell", static_cast<std::uint64_t>(i));
        const CellOutcome &o = res.outcomeAt(i);
        Json outcome = Json::object();
        outcome.set("ok", o.ok);
        outcome.set("attempts", o.attempts);
        outcome.set("from_journal", o.fromJournal);
        if (!o.ok)
            outcome.set("error", o.error.toString());
        row.set("outcome", std::move(outcome));
        if (o.ok)
            row.set("results", res.at(i).toJson());
        Json timing = Json::object();
        timing.set("start_seconds", t.startSeconds);
        timing.set("wall_seconds", t.wallSeconds);
        timing.set("worker", t.worker);
        timing.set("instrs_per_sec", t.instrsPerSec);
        row.set("timing", std::move(timing));
        if (!summaries.empty()) {
            const IntervalSummary &s = summaries[i];
            Json sj = Json::object();
            sj.set("intervals", s.intervals);
            sj.set("mean_vmcpi", s.meanVmcpi);
            sj.set("stddev_vmcpi", s.stddevVmcpi);
            sj.set("min_vmcpi", s.minVmcpi);
            sj.set("max_vmcpi", s.maxVmcpi);
            row.set("interval_summary", std::move(sj));
        }
        if (!lats.empty() && lats[i]) {
            // Per-cell latency + residency histograms, rendered via a
            // throwaway registry so the JSON shape matches the CLI's
            // stats dump (buckets + p50/p90/p99 per histogram).
            StatsRegistry lreg;
            exportLatency(*lats[i], lreg);
            row.set("latency", lreg.toJson());
        }
        cells.push(std::move(row));
    }

    Json doc = Json::object();
    doc.set("cells", std::move(cells));
    doc.set("stats", registry.toJson());

    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os.is_open())
        throw VmsimError(errnoError(path, "cannot open stats JSON for "
                                          "writing"));
    os << doc.dump(2) << '\n';
}

} // anonymous namespace

std::uint64_t
specFingerprint(const SweepSpec &spec)
{
    // FNV-1a over a stable text rendering of every materialized cell.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        h ^= 0xff;
        h *= 0x100000001b3ULL;
    };
    mix(std::to_string(spec.numCells()));
    mix(std::to_string(spec.instructionCount()));
    mix(spec.warmupCount() ? std::to_string(*spec.warmupCount()) : "-");
    for (std::size_t i = 0; i < spec.numCells(); ++i) {
        const SweepCell cell = spec.cell(i);
        mix(cell.workload);
        mix(cell.config.toString());
        mix(std::to_string(cell.config.seed));
        mix(std::to_string(cell.config.pageBits));
        mix(std::to_string(cell.config.physMemBytes));
    }
    return h;
}

CellRunner::CellRunner(const SweepSpec &spec, const ObsOptions &obs,
                       RetryPolicy retry, const FaultSpec &faults,
                       std::size_t batchSize, bool verify,
                       bool wantLatency, TraceCache *cache)
    : spec_(spec), obs_(obs), retry_(retry), faults_(faults),
      batchSize_(batchSize), verify_(verify), wantLatency_(wantLatency),
      cache_(cache)
{}

CellExecution
CellRunner::run(std::size_t flat) const
{
    return run(flat, Hooks{});
}

CellExecution
CellRunner::run(std::size_t flat, const Hooks &extra) const
{
    CellExecution out;
    const SweepCell cell = spec_.cell(flat);
    const Counter instrs = spec_.instructionCount();
    // What the cell actually executes (warmup included) — the record
    // count a shared recording must cover to replace generation.
    const Counter executed =
        instrs + spec_.warmupCount().value_or(defaultWarmup(instrs));
    const unsigned maxAttempts = 1 + retry_.maxRetries;

    unsigned attempts = 0;
    while (true) {
        ++attempts;
        try {
            if (extra.onAttempt)
                extra.onAttempt();
            RunHooks hooks;
            std::unique_ptr<JsonlEventWriter> events;
            if (!obs_.traceEvents.empty()) {
                events = std::make_unique<JsonlEventWriter>(
                    cellEventPath(obs_.traceEvents, flat,
                                  spec_.numCells()));
                hooks.sink = events.get();
            }
            std::unique_ptr<IntervalSampler> sampler;
            if (obs_.interval) {
                sampler =
                    std::make_unique<IntervalSampler>(obs_.interval);
                hooks.sampler = sampler.get();
            }
            hooks.progress = extra.progress;
            if (wantLatency_) {
                out.latency = std::make_unique<LatencyCollector>();
                hooks.latency = out.latency.get();
            }
            // Fault streams are keyed by (cell, attempt): the same
            // run is deterministic, yet a retried attempt rolls
            // fresh faults and can succeed — transient semantics.
            std::unique_ptr<FaultySink> faultySink;
            if (faults_.writeFail > 0) {
                faultySink = std::make_unique<FaultySink>(
                    hooks.sink, faults_,
                    faultStream(faults_.seed, flat, attempts - 1) ^ 1);
                hooks.sink = faultySink.get();
            }
            if (faults_.any()) {
                EventSink *obsSink = events.get();
                std::uint64_t stream =
                    faultStream(faults_.seed, flat, attempts - 1);
                const FaultSpec &fs = faults_;
                hooks.wrapTrace =
                    [fs, stream, obsSink](
                        std::unique_ptr<TraceSource> inner) {
                        return std::make_unique<FaultyTraceSource>(
                            std::move(inner), fs, stream, obsSink);
                    };
            }
            hooks.cancel = extra.cancel;
            hooks.batch = batchSize_;
            std::shared_ptr<const RecordedTrace> replayed;
            if (cache_) {
                // Replay the shared recording when it fits; the
                // cursor carries the workload's own name so
                // Results are indistinguishable from a generated
                // run. Fault wrapping (wrapTrace) still applies on
                // top of whatever source this returns.
                TraceCache *cache = cache_;
                hooks.makeTrace = [cache, &cell, executed,
                                   &replayed]() -> NamedTraceSource {
                    auto recorded = cache->acquire(
                        cell.workload, cell.config.seed, executed);
                    if (recorded) {
                        std::string name = recorded->name();
                        replayed = recorded;
                        return {std::make_unique<ReplayCursor>(
                                    std::move(recorded)),
                                std::move(name)};
                    }
                    auto gen =
                        makeWorkload(cell.workload, cell.config.seed);
                    std::string name = gen->name();
                    return {liveGenerator(std::move(gen), cell.config,
                                          executed),
                            std::move(name)};
                };
            }

            if (verify_) {
                // A broken law throws Internal out of runOnce and
                // lands in the cell's failure outcome below. The
                // latency collector (when attached) is audited
                // against the same Results.
                InvariantChecker checker(cell.config);
                const LatencyCollector *lat = hooks.latency;
                hooks.audit = [checker, lat](const Results &res) {
                    checker.checkAll(res, nullptr, nullptr, lat)
                        .orThrow();
                };
            }

            Results r = runOnce(cell.config, cell.workload, instrs,
                                spec_.warmupCount(), hooks);

            // The recording is shared by every cell that replays it:
            // under --check, prove the simulator didn't scribble on
            // the lent buffer (RecordedTrace framing) before another
            // cell replays the damage.
            if (verify_ && replayed)
                replayed->verifyIntegrity().orThrow();

            if (sampler)
                out.summary = summarizeIntervals(sampler->intervals());
            out.results = std::move(r);
            out.outcome.ok = true;
            out.outcome.attempts = attempts;
            return out;
        } catch (...) {
            Error err = errorFromException(std::current_exception());
            if (extra.classify)
                extra.classify(err);
            if (err.transient && attempts < maxAttempts) {
                if (extra.onRetry)
                    extra.onRetry();
                if (retry_.backoffSeconds > 0)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double>(
                            retry_.backoffSeconds *
                            double(1u << (attempts - 1))));
                continue;
            }
            out.outcome.ok = false;
            out.outcome.error = std::move(err);
            out.outcome.attempts = attempts;
            return out;
        }
    }
}

SweepResults
SweepRunner::run(const SweepSpec &spec) const
{
    const std::size_t n = spec.numCells();
    const Counter instrs = spec.instructionCount();
    // What each cell actually executes (warmup included).
    const Counter warmupInstrs =
        spec.warmupCount().value_or(defaultWarmup(instrs));
    const Counter executed = instrs + warmupInstrs;

    // Shared recorded-trace cache: every cell consumes exactly
    // `executed` records of its (workload, seed) trace, so one
    // recording of that length serves all of them. Cells whose trace
    // exceeds the remaining budget transparently regenerate instead.
    std::unique_ptr<TraceCache> traceCache;
    if (traceCacheMb_ > 0)
        traceCache = std::make_unique<TraceCache>(traceCacheMb_ *
                                                  std::size_t{1} << 20);

    std::vector<Results> results(n);
    std::vector<CellTiming> timings(n);
    std::vector<CellOutcome> outcomes(n);
    std::vector<IntervalSummary> summaries(obs_.interval ? n : 0);

    // Per-cell latency collectors when the stats dump wants
    // distribution rows or the verifier audits histogram totals.
    const bool wantLatency = !obs_.statsJson.empty() || verify_;
    std::vector<std::unique_ptr<LatencyCollector>> lats(
        wantLatency ? n : 0);

    // Checkpoint/resume: the journal's open reloads completed cells
    // (repairing a torn tail), then only the rest re-run. Failed cells
    // are never journaled, so they retry on resume.
    std::unique_ptr<ShardLog> journal;
    if (!journalPath_.empty()) {
        journal = std::make_unique<ShardLog>(journalPath_,
                                             ShardLog::Kind::Journal, spec,
                                             /*fresh=*/!resume_);
        for (auto &[flat, r] : journal->takeRecovered()) {
            if (outcomes[flat].fromJournal)
                continue; // duplicate commit: identical bytes, keep #1
            results[flat] = std::move(r);
            outcomes[flat].attempts = 0;
            outcomes[flat].fromJournal = true;
        }
    }
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i)
        if (!outcomes[i].fromJournal)
            pending.push_back(i);

    // Live telemetry: journal-resumed cells are already done before
    // the first heartbeat fires.
    std::unique_ptr<SweepTelemetry> telemetry;
    if (obs_.telemetry()) {
        TelemetryOptions topts;
        topts.periodSeconds =
            obs_.progressSeconds > 0 ? obs_.progressSeconds : 2.0;
        topts.progressPath = obs_.progressOut;
        topts.metricsPath = obs_.metricsOut;
        topts.toStderr =
            obs_.progressSeconds > 0 && obs_.progressOut.empty();
        telemetry = std::make_unique<SweepTelemetry>(
            topts, static_cast<std::uint64_t>(n), jobs_);
        telemetry->preloadDone(
            static_cast<std::uint64_t>(n - pending.size()));
        telemetry->start();
    }

    // Dense worker indices in order of first appearance, so trace
    // tracks are 0..jobs-1 regardless of the pool's thread ids.
    std::unordered_map<std::thread::id, unsigned> workers;
    std::mutex workersMutex;
    auto workerIndex = [&] {
        std::lock_guard<std::mutex> lock(workersMutex);
        auto [it, inserted] = workers.try_emplace(
            std::this_thread::get_id(),
            static_cast<unsigned>(workers.size()));
        return it->second;
    };

    // Watchdog: workers publish a wall-clock deadline per cell; one
    // scanner thread trips the cell's cancel token when it passes, and
    // the simulation loop turns that into a Canceled throw. Both
    // vectors are sized once — never reallocated — so workers and
    // watchdog touch disjoint atomics without locks. The same scanner
    // fans the process-wide shutdown flag (base/signals.hh) out to
    // every cell's token when graceful shutdown is armed.
    const bool watch = cellTimeoutSeconds_ > 0;
    const bool cancelPoll = watch || graceful_;
    std::vector<std::atomic<std::int64_t>> deadlines(watch ? n : 0);
    std::vector<std::atomic<bool>> cancels(cancelPoll ? n : 0);
    std::atomic<bool> watchdogStop{false};
    std::thread watchdog;
    auto nowNs = [] {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    };
    if (cancelPoll) {
        watchdog = std::thread([&] {
            while (!watchdogStop.load(std::memory_order_acquire)) {
                if (graceful_ && shutdownRequested())
                    for (std::size_t i = 0; i < n; ++i)
                        cancels[i].store(true,
                                         std::memory_order_release);
                if (watch) {
                    const std::int64_t now = nowNs();
                    for (std::size_t i = 0; i < n; ++i) {
                        std::int64_t d =
                            deadlines[i].load(std::memory_order_acquire);
                        if (d != 0 && now > d)
                            cancels[i].store(true,
                                             std::memory_order_release);
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        });
    }

    const auto sweepStart = std::chrono::steady_clock::now();
    CellRunner cellRunner(spec, obs_, retry_, faults_, batchSize_,
                          verify_, wantLatency, traceCache.get());
    auto runCell = [&](std::size_t i) {
        const auto t0 = std::chrono::steady_clock::now();
        const unsigned worker = workerIndex();
        if (telemetry)
            telemetry->beginCell(worker, i);

        CellExecution exec;
        if (graceful_ && shutdownRequested()) {
            // Drain: cells that never started are marked Canceled so
            // the journal keeps only finished work and a --resume
            // picks them up where the signal cut the sweep short.
            exec.outcome.ok = false;
            exec.outcome.attempts = 0;
            exec.outcome.error = makeError(
                ErrorCode::Canceled, "cell " + std::to_string(i),
                "shutdown requested before cell ", i, " started");
        } else {
            CellRunner::Hooks extra;
            if (telemetry) {
                extra.progress = telemetry->progressCounter(worker);
                extra.onRetry = [&, worker] {
                    telemetry->noteRetry(worker);
                };
            }
            if (cancelPoll) {
                extra.cancel = &cancels[i];
                extra.onAttempt = [&, i] {
                    cancels[i].store(false, std::memory_order_release);
                    if (watch)
                        deadlines[i].store(
                            nowNs() + static_cast<std::int64_t>(
                                          cellTimeoutSeconds_ * 1e9),
                            std::memory_order_release);
                };
                extra.classify = [&, i](Error &err) {
                    if (watch)
                        deadlines[i].store(0, std::memory_order_release);
                    // A shutdown-tripped token keeps its Canceled
                    // error; only the watchdog's own trip becomes a
                    // Timeout.
                    if (graceful_ && shutdownRequested())
                        return;
                    if (watch &&
                        cancels[i].load(std::memory_order_acquire))
                        err = makeError(
                            ErrorCode::Timeout,
                            "cell " + std::to_string(i), "cell ", i,
                            " exceeded its ", cellTimeoutSeconds_,
                            "s wall-clock budget and was canceled");
                };
            }
            exec = cellRunner.run(i, extra);
            if (watch)
                deadlines[i].store(0, std::memory_order_release);
        }

        if (obs_.interval)
            summaries[i] = exec.summary;
        if (wantLatency)
            lats[i] = std::move(exec.latency);
        results[i] = std::move(exec.results);
        outcomes[i] = std::move(exec.outcome);
        if (outcomes[i].ok && journal)
            journal->commit(i, results[i]);

        if (telemetry)
            telemetry->endCell(worker, outcomes[i].ok);

        const auto t1 = std::chrono::steady_clock::now();
        CellTiming &t = timings[i];
        t.startSeconds =
            std::chrono::duration<double>(t0 - sweepStart).count();
        t.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
        t.worker = worker;
        t.instrsPerSec = outcomes[i].ok && t.wallSeconds > 0
                             ? static_cast<double>(executed) /
                                   t.wallSeconds
                             : 0.0;
    };

    try {
        map(pending.size(), [&](std::size_t k) {
            runCell(pending[k]);
            return 0;
        });
    } catch (...) {
        // Journal I/O failure or similar infrastructure error: stop
        // the watchdog before letting it propagate.
        if (cancelPoll) {
            watchdogStop.store(true, std::memory_order_release);
            watchdog.join();
        }
        throw;
    }
    if (cancelPoll) {
        watchdogStop.store(true, std::memory_order_release);
        watchdog.join();
    }
    if (telemetry) {
        // Final heartbeat: every cell ended, so done + failed covers
        // the grid. Under --check the accounting laws are audited too.
        telemetry->stop();
        if (verify_) {
            CheckReport rep;
            checkTelemetry(telemetry->snapshot(), true, rep);
            rep.orThrow();
        }
    }

    SweepResults res(spec, std::move(results), std::move(timings),
                     std::move(outcomes));
    if (!obs_.chromeTrace.empty())
        writeWallTrace(obs_.chromeTrace, res);
    if (!obs_.statsJson.empty())
        writeSweepStats(obs_.statsJson, res, summaries, lats);
    return res;
}

Results
sweepCell(SimConfig config, const std::string &workload, Counter instrs)
{
    return runOnce(config, workload, instrs);
}

SeedStats
runSeeds(SimConfig config, const std::string &workload, Counter instrs,
         Counter warmup, unsigned n_seeds,
         double (*metric)(const Results &))
{
    fatalIf(n_seeds == 0, "runSeeds needs at least one seed");
    SweepSpec spec;
    spec.base(config)
        .workloads({workload})
        .seeds(n_seeds)
        .instructions(instrs)
        .warmup(warmup);
    SweepResults res = SweepRunner(1).run(spec);
    return res.seedStats(CellIndex{}, metric);
}

} // namespace vmsim
