#include "core/sweep.hh"

#include <algorithm>
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
#include <type_traits>
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

/** --phys-mb ceiling: the budget in bytes must fit 64 bits. */
constexpr std::uint64_t kMaxPhysMb = (std::uint64_t{1} << 44) - 1;

/** "--name=N" (or "--name" for a bool) as listed in usage errors. */
std::string
flagUsage(const Flag &flag)
{
    if (std::holds_alternative<bool *>(flag.dest))
        return flag.name;
    if (flag.bare > 0)
        return std::string(flag.name) + "[=" + flag.metavar + "]";
    return std::string(flag.name) + "=" + flag.metavar;
}

/** Parse @p value (nullptr for a bare flag) into @p flag's dest. */
void
setFlag(const Flag &flag, const char *value)
{
    const std::string name = flag.name;
    if (auto *on = std::get_if<bool *>(&flag.dest)) {
        fatalIf(value != nullptr, name, " takes no value");
        **on = true;
        return;
    }
    if (auto *d = std::get_if<double *>(&flag.dest); d && !value &&
                                                     flag.bare > 0) {
        **d = flag.bare;
        return;
    }
    fatalIf(value == nullptr, name, " needs a value (", flagUsage(flag),
            ")");
    auto bounded = [&](std::uint64_t v) {
        fatalIf(flag.positive && v == 0, name, " must be positive");
        if (v > flag.max)
            throw VmsimError(makeError(
                ErrorCode::InvalidArgument, name, name, " must be at most ",
                flag.max, ", got '", value, "' (out of range)"));
        return v;
    };
    std::visit(
        [&](auto &dest) {
            using D = std::decay_t<decltype(dest)>;
            if constexpr (std::is_same_v<D, std::uint32_t *>) {
                *dest = static_cast<std::uint32_t>(
                    bounded(parseU32(value, name).orThrow()));
            } else if constexpr (std::is_same_v<D, std::uint64_t *> ||
                                 std::is_same_v<
                                     D, std::optional<std::uint64_t> *>) {
                *dest = bounded(parseU64(value, name).orThrow());
            } else if constexpr (std::is_same_v<D, double *>) {
                *dest = parseF64(value, name).orThrow();
                fatalIf(flag.positive && *dest <= 0, name,
                        " must be positive");
                fatalIf(*dest < 0, name, " must be >= 0");
            } else if constexpr (std::is_same_v<D, std::string *>) {
                fatalIf(*value == '\0', name, " needs a value (",
                        flagUsage(flag), ")");
                *dest = value;
            } else if constexpr (std::is_same_v<
                                     D, std::function<void(const char *)>>) {
                dest(value);
            }
        },
        flag.dest);
}

} // anonymous namespace

void
parseFlags(int argc, char **argv, const std::vector<Flag> &flags)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *eq = std::strchr(arg, '=');
        const std::string name =
            eq ? std::string(arg, static_cast<std::size_t>(eq - arg))
               : std::string(arg);
        auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag &f) {
                                     return name == f.name;
                                 });
        if (flag == flags.end()) {
            std::string expected;
            for (const Flag &f : flags)
                expected += (expected.empty() ? "" : ", ") + flagUsage(f);
            fatal("unknown argument '", arg, "' (expected ", expected,
                  ")");
        }
        setFlag(*flag, eq ? eq + 1 : nullptr);
    }
}

std::vector<Flag>
RunOptions::flags()
{
    return {
        {.name = "--instructions", .metavar = "N", .dest = &instructions,
         .positive = true},
        {.name = "--warmup", .metavar = "N", .dest = &warmup},
        {.name = "--seed", .metavar = "N", .dest = &seed},
        {.name = "--seeds", .metavar = "N", .dest = &seeds,
         .positive = true},
        {.name = "--trace-events", .metavar = "F",
         .dest = &obs.traceEvents},
        {.name = "--chrome-trace", .metavar = "F",
         .dest = &obs.chromeTrace},
        {.name = "--stats-json", .metavar = "F", .dest = &obs.statsJson},
        {.name = "--interval", .metavar = "N", .dest = &obs.interval,
         .positive = true},
        {.name = "--progress", .metavar = "S",
         .dest = &obs.progressSeconds, .positive = true, .bare = 2.0},
        {.name = "--progress-out", .metavar = "F",
         .dest = &obs.progressOut},
        {.name = "--inject-faults", .metavar = "SPEC",
         .dest = [this](const char *v) {
             faults = FaultSpec::parse(v).orThrow();
         }},
        {.name = "--batch", .metavar = "N", .dest = &batch,
         .positive = true},
        {.name = "--cores", .metavar = "N", .dest = &cores,
         .positive = true},
        {.name = "--core-quantum", .metavar = "N", .dest = &coreQuantum,
         .positive = true},
        {.name = "--private-l2tlb", .dest = &privateL2Tlb},
        {.name = "--phys-mb", .metavar = "N", .dest = &physMb,
         .positive = true, .max = kMaxPhysMb},
        {.name = "--reclaim", .metavar = "P",
         .dest = [this](const char *v) {
             reclaim = parseReclaimPolicy(v).orThrow();
         }},
        {.name = "--check", .dest = &check},
        {.name = "--fuzz", .metavar = "N", .dest = &fuzz,
         .positive = true},
        {.name = "--shard-dir", .metavar = "D", .dest = &shardDir},
        {.name = "--shard-owner", .metavar = "ID", .dest = &shardOwner},
        {.name = "--lease-seconds", .metavar = "S", .dest = &leaseSeconds,
         .positive = true},
    };
}

void
RunOptions::applyTo(SimConfig &cfg) const
{
    cfg.seed = seed;
    cfg.cores = cores;
    if (coreQuantum)
        cfg.coreQuantum = coreQuantum;
    cfg.sharedL2Tlb = !privateL2Tlb;
    if (physMb) {
        cfg.physFrames = physFramesFor(cfg.pageBits);
        cfg.reclaimPolicy = reclaim;
    }
}

std::uint64_t
RunOptions::physFramesFor(unsigned page_bits) const
{
    // SimConfig::validate() rejects such page sizes; don't shift by
    // the whole width first.
    if (page_bits >= 64)
        return 0;
    return (physMb << 20) >> page_bits;
}

void
RunOptions::refuseShardObservers() const
{
    const std::pair<const char *, bool> observers[] = {
        {"--trace-events", !obs.traceEvents.empty()},
        {"--chrome-trace", !obs.chromeTrace.empty()},
        {"--stats-json", !obs.statsJson.empty()},
        {"--interval", obs.interval != 0},
        {"--progress", obs.progressSeconds != 0},
        {"--progress-out", !obs.progressOut.empty()},
    };
    for (const auto &[flag, given] : observers)
        fatalIf(given && !shardDir.empty(), flag,
                " cannot be combined with --shard-dir (shard workers run "
                "their cells without observers)");
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    std::vector<Flag> flags = {
        {.name = "--full", .dest = &opts.full},
        {.name = "--csv", .dest = &opts.csv},
        {.name = "--jobs", .metavar = "N", .dest = &opts.jobs},
        {.name = "--retries", .metavar = "N", .dest = &opts.retries},
        {.name = "--retry-backoff", .metavar = "S",
         .dest = &opts.retryBackoff},
        {.name = "--journal", .metavar = "F", .dest = &opts.journal},
        {.name = "--resume", .dest = &opts.resume},
        {.name = "--trace-cache-mb", .metavar = "N",
         .dest = &opts.traceCacheMb},
        {.name = "--phys-mb-list", .metavar = "A,B",
         .dest = [&opts](const char *v) {
             opts.physMbList = parseU64List(v, "--phys-mb-list");
         }},
    };
    std::vector<Flag> shared = opts.flags();
    flags.insert(flags.end(), shared.begin(), shared.end());
    parseFlags(argc, argv, flags);
    opts.refuseShardObservers();
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

/** FrontEndUse names, in declaration order. */
constexpr const char *kFrontEndUseNames[] = {"own", "recorded",
                                             "replayed"};

/**
 * Render the sweep's wall-clock schedule as a Chrome trace: one
 * complete slice per cell on its worker's track of the pid-0 timeline,
 * naming how the cell's VM side ran (FrontEndUse).
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
             {"instrs_per_sec", ips},
             {"front_end",
              kFrontEndUseNames[static_cast<unsigned>(
                  res.outcomeAt(i).frontEnd)]}});
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

/**
 * --check's cross-cell audit: checkCacheIndependence() over each
 * front-end group's succeeded cells, the law that sharing rests on. A
 * violation fails every member of the group.
 */
void
auditFrontEndGroups(const SweepSpec &spec,
                    const std::vector<Results> &results,
                    std::vector<CellOutcome> &outcomes)
{
    const std::vector<std::size_t> groups = frontEndGroups(spec);
    std::vector<std::vector<std::size_t>> members;
    for (std::size_t flat = 0; flat < groups.size(); ++flat) {
        if (groups[flat] == kNoFrontEndGroup || !outcomes[flat].ok)
            continue;
        if (groups[flat] >= members.size())
            members.resize(groups[flat] + 1);
        members[groups[flat]].push_back(flat);
    }
    for (const std::vector<std::size_t> &cells : members) {
        std::vector<Results> rs;
        std::vector<std::string> labels;
        for (std::size_t flat : cells) {
            rs.push_back(results[flat]);
            labels.push_back("cell " + std::to_string(flat));
        }
        const CheckReport rep = checkCacheIndependence(rs, labels);
        if (rep.ok())
            continue;
        for (std::size_t flat : cells) {
            outcomes[flat].ok = false;
            outcomes[flat].error =
                makeError(ErrorCode::Internal,
                          "cell " + std::to_string(flat), rep.toString());
        }
    }
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

std::vector<std::size_t>
frontEndGroups(const SweepSpec &spec)
{
    // The key's config: l1, l2 and costs never reach the VM side.
    struct Key
    {
        SimConfig config;
        std::string workload;
        std::vector<std::size_t> cells;
    };
    // Bucketed by a few fields so a long sweep compares few keys; the
    // defaulted operator== decides. The spec fixes instrs and warmup.
    std::unordered_map<std::uint64_t, std::vector<Key>> buckets;
    const SimConfig defaults;
    for (std::size_t flat = 0; flat < spec.numCells(); ++flat) {
        SweepCell cell = spec.cell(flat);
        if (!frontEndShareable(cell.config))
            continue;
        SimConfig &c = cell.config;
        c.l1 = defaults.l1;
        c.l2 = defaults.l2;
        c.costs = defaults.costs;
        const std::uint64_t h =
            std::hash<std::string>{}(cell.workload) ^
            (c.seed * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::uint64_t>(c.kind) << 56) ^
            (std::uint64_t{c.tlbEntries} << 40) ^ c.ctxSwitchInterval;
        std::vector<Key> &bucket = buckets[h];
        auto it = std::find_if(bucket.begin(), bucket.end(),
                               [&](const Key &k) {
                                   return k.config == c &&
                                          k.workload == cell.workload;
                               });
        if (it == bucket.end()) {
            bucket.push_back({c, cell.workload, {}});
            it = bucket.end() - 1;
        }
        it->cells.push_back(flat);
    }
    std::vector<std::size_t> group(spec.numCells(), kNoFrontEndGroup);
    std::vector<const Key *> keys;
    for (const auto &[h, bucket] : buckets)
        for (const Key &k : bucket)
            if (k.cells.size() > 1)
                keys.push_back(&k);
    // Dense ids in first-member order, whatever the buckets' order.
    std::sort(keys.begin(), keys.end(), [](const Key *a, const Key *b) {
        return a->cells.front() < b->cells.front();
    });
    for (std::size_t g = 0; g < keys.size(); ++g)
        for (std::size_t flat : keys[g]->cells)
            group[flat] = g;
    return group;
}

/**
 * The shared front ends of one CellRunner: per frontEndGroups() group,
 * the published FrontEnd, whether a member is recording one, and how
 * many members have yet to succeed. Thread-safe; a published FrontEnd
 * is immutable, and a replaying cell keeps its own reference.
 */
class CellRunner::FrontEnds
{
  public:
    explicit FrontEnds(const SweepSpec &spec)
        : groupOf_(frontEndGroups(spec)), done_(groupOf_.size(), 0)
    {
        for (std::size_t g : groupOf_) {
            if (g == kNoFrontEndGroup)
                continue;
            if (g >= groups_.size())
                groups_.resize(g + 1);
            ++groups_[g].left;
        }
    }

    /** What cell @p flat does: record, replay, or neither. */
    struct Role
    {
        std::size_t group = kNoFrontEndGroup;
        bool record = false;
        std::shared_ptr<const FrontEnd> replay;
    };

    /** Settle cell @p flat's role. */
    Role
    claim(std::size_t flat)
    {
        Role role;
        role.group = groupOf_[flat];
        if (role.group == kNoFrontEndGroup)
            return role;
        std::lock_guard<std::mutex> lock(mutex_);
        Group &g = groups_[role.group];
        if (g.published) {
            role.replay = g.published;
        } else if (!g.recording && g.left > 0) {
            role.record = g.recording = true;
        }
        return role;
    }

    /**
     * Cell @p flat ended: @p ok is its Results on success, else null.
     * A recording member publishes @p log with them; the group's last
     * member to succeed frees the published log.
     */
    void
    finish(std::size_t flat, const Role &role, ServiceLog &log,
           const Results *ok)
    {
        if (role.group == kNoFrontEndGroup)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        Group &g = groups_[role.group];
        if (role.record) {
            g.recording = false;
            if (ok && !log.overflow)
                g.published = std::make_shared<const FrontEnd>(
                    FrontEnd{std::move(log), *ok});
        }
        if (ok && !done_[flat]) {
            done_[flat] = 1;
            if (--g.left == 0)
                g.published.reset();
        }
    }

  private:
    struct Group
    {
        std::size_t left = 0; ///< members that have not yet succeeded
        bool recording = false;
        std::shared_ptr<const FrontEnd> published;
    };

    std::mutex mutex_;
    std::vector<std::size_t> groupOf_;
    std::vector<char> done_;
    std::vector<Group> groups_;
};

CellRunner::CellRunner(const SweepSpec &spec, const ObsOptions &obs,
                       RetryPolicy retry, const FaultSpec &faults,
                       std::size_t batchSize, bool verify,
                       bool wantLatency, TraceCache *cache)
    : spec_(spec), obs_(obs), retry_(retry), faults_(faults),
      batchSize_(batchSize), verify_(verify), wantLatency_(wantLatency),
      cache_(cache)
{
    // Observers see the VM's own events and latencies, and faults
    // corrupt each cell's trace alone: such cells run their own VM. So
    // does every cell of a scalar-loop sweep (--batch=1), which has no
    // split blocks whose service logs a recording keeps.
    if (obs_.traceEvents.empty() && obs_.interval == 0 && !wantLatency_ &&
        !faults_.any() && batchSize_ != 1)
        frontEnds_ = std::make_shared<FrontEnds>(spec_);
}

CellExecution
CellRunner::run(std::size_t flat) const
{
    return run(flat, Hooks{});
}

CellExecution
CellRunner::run(std::size_t flat, const Hooks &extra) const
{
    if (!frontEnds_)
        return runAttempts(flat, extra, nullptr, nullptr);
    const FrontEnds::Role role = frontEnds_->claim(flat);
    ServiceLog log;
    CellExecution out;
    try {
        out = runAttempts(flat, extra, role.record ? &log : nullptr,
                          role.replay.get());
    } catch (...) {
        frontEnds_->finish(flat, role, log, nullptr);
        throw;
    }
    frontEnds_->finish(flat, role, log,
                       out.outcome.ok ? &out.results : nullptr);
    return out;
}

CellExecution
CellRunner::runAttempts(std::size_t flat, const Hooks &extra,
                        ServiceLog *record, const FrontEnd *replay) const
{
    CellExecution out;
    out.outcome.frontEnd = replay ? FrontEndUse::Replayed
                           : record ? FrontEndUse::Recorded
                                    : FrontEndUse::Own;
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
            if (record) {
                *record = ServiceLog{}; // a retry logs afresh
                hooks.record = record;
            }
            hooks.replay = replay;
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
            if (graceful_)
                extra.cancel = shutdownToken();
            exec = cellRunner.run(i, extra);
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

    if (jobs_ > 1 && cellRunner.sharesFrontEnds()) {
        // One member of every front-end group first, so its siblings
        // find the group's log published when they start.
        const std::vector<std::size_t> groups = frontEndGroups(spec);
        std::vector<char> led(n, 0);
        std::vector<std::size_t> leaders, rest;
        for (std::size_t flat : pending) {
            const std::size_t g = groups[flat];
            if (g != kNoFrontEndGroup && !led[g]) {
                led[g] = 1;
                leaders.push_back(flat);
            } else {
                rest.push_back(flat);
            }
        }
        pending = std::move(leaders);
        pending.insert(pending.end(), rest.begin(), rest.end());
    }

    map(pending.size(), [&](std::size_t k) {
        runCell(pending[k]);
        return 0;
    });
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
    if (verify_)
        auditFrontEndGroups(spec, results, outcomes);

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
