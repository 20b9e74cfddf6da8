/**
 * @file
 * vmsim_cli: a general-purpose command-line driver exposing the full
 * configuration space — the tool you reach for to answer one-off
 * "what does organization X cost under parameters Y" questions
 * without writing code.
 *
 * Usage: vmsim_cli [options]
 *   --system=NAME         ULTRIX|MACH|INTEL|PA-RISC|NOTLB|BASE|
 *                         HW-INVERTED|HW-MIPS|SPUR      [ULTRIX]
 *   --workload=NAME       gcc|vortex|ijpeg              [gcc]
 *   --trace=PATH          VMT1 trace file (overrides --workload)
 *   --instructions=N      measured instructions         [2000000]
 *   --warmup=N            warmup instructions           [instructions/4]
 *   --batch=N             trace-fetch batch size
 *                         (1 = scalar loop)             [4096]
 *   --l1=BYTES            L1 size per side              [65536]
 *   --l1-line=BYTES       L1 line size                  [64]
 *   --l2=BYTES            L2 size per side              [1048576]
 *   --l2-line=BYTES       L2 line size                  [128]
 *   --assoc=N             cache associativity           [1]
 *   --tlb=N               TLB entries per side          [128]
 *   --protected=N         protected TLB slots           [16]
 *   --page-bits=N         log2 page size                [12]
 *   --interrupt=CYCLES    precise-interrupt cost        [50]
 *   --hpt-ratio=N         PA-RISC entries per frame     [2]
 *   --seed=N              workload/replacement seed     [12345]
 *   --ctx-switch=N        flush TLBs every N instrs     [0 = never]
 *   --asid-bits=N         ASID tag bits (switches evict
 *                         instead of flushing)          [0]
 *   --l2-tlb=N            unified L2 TLB entries        [0 = none]
 *   --unified-l2          share one L2 of 2x capacity
 *   --phys-mb=N           physical-frame budget in MiB; the VM
 *                         system evicts under pressure  [unlimited]
 *   --reclaim=P           frame reclaim policy:
 *                         fifo|lru|clock                [fifo]
 *   --json                emit machine-readable JSON
 *
 * Multicore (see docs/multicore.md):
 *   --cores=N             simulated cores sharing the page
 *                         table and memory hierarchy     [1]
 *   --core-quantum=N      round-robin quantum in instrs  [50000]
 *   --private-l2tlb       per-core L2 TLBs instead of one
 *                         shared L2 TLB
 *
 * Observability (see docs/observability.md):
 *   --trace-events=FILE   JSONL event log of the measured run
 *   --chrome-trace=FILE   Chrome-trace/Perfetto timeline (open at
 *                         ui.perfetto.dev; 1 "us" = 1 instruction)
 *   --stats-json=FILE     results + stats registry + interval series
 *   --interval=N          sample MCPI/VMCPI every N instructions and
 *                         print the series as CSV after the summary
 *   --progress[=S]        live heartbeat every S seconds (default 2)
 *                         while the run executes; goes to stderr
 *                         unless --progress-out redirects it
 *   --progress-out=FILE   append JSONL telemetry heartbeats to FILE
 *
 * --stats-json and --check additionally attach a LatencyCollector, so
 * the stats dump carries per-episode miss/walk/shootdown latency and
 * TLB-residency histograms (with p50/p90/p99), and --check reconciles
 * their totals against the run's counters.
 *
 * Robustness (see docs/robustness.md):
 *   --inject-faults=SPEC  deterministic fault injection on the trace
 *                         and event-sink paths, e.g.
 *                         corrupt=0.01,throw=0.01,seed=7
 *
 * Checking (see docs/checking.md):
 *   --check               audit the run with the invariant checker
 *                         (conservation + Table-4 laws + event and
 *                         interval reconciliation); violations print
 *                         to stderr and exit 1
 *   --fuzz=N              instead of simulating, run N differential
 *                         fuzz cases seeded from --seed and print the
 *                         JSON report; exit 1 on any failing tuple
 *   --fuzz-report=FILE    write the fuzz report JSON to FILE instead
 *                         of stdout
 *
 * Sharded sweeps (see docs/robustness.md): with --shard-dir the process
 * is one worker of a crash-tolerant sweep over the config above crossed
 * with --seeds / --sweep-systems, and refuses the observation flags.
 * Start any number of workers (restart any that die) on one directory;
 * each prints a summary line to stderr; --shard-merge prints the CSV.
 *   --shard-dir=D         shared shard directory (created if absent)
 *   --shard-owner=ID      stable worker identity        [pid<pid>]
 *   --lease-seconds=S     stale-lease reclaim horizon   [30]
 *   --seeds=N             seed-replicated cells in the grid [4]
 *   --sweep-systems=A,B   sweep these systems as a second axis
 *   --shard-merge         merge the directory and print the CSV;
 *                         runs no cells; exit 1 if cells are missing
 *   --crash-after=SPEC    test hook: worker crash plan
 *                         "after=N[,torn=1][,throw=1]"
 *   --crash-fuzz=N        run N process-level SIGKILL campaigns
 *                         against sharded sweeps and print the
 *                         report; exit 1 on any integrity or
 *                         byte-identity violation
 *
 * All errors — bad flags, unreadable traces, injected faults — exit
 * with status 1 and a one-line [code] diagnostic on stderr. A worker
 * interrupted by SIGINT/SIGTERM drains, flushes its log, and exits
 * with status 75 (kExitInterrupted).
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vmsim.hh"

namespace
{

using namespace vmsim;

int
runCli(int argc, char **argv)
{
    RunOptions opts;
    opts.seeds = 4;
    SimConfig cfg;
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    std::string workload = "gcc";
    std::string trace_path;
    bool json = false;
    std::string fuzz_report_path;
    std::vector<SystemKind> sweep_systems;
    bool shard_merge = false;
    CrashPlan crash_plan;
    std::size_t crash_fuzz = 0;

    auto system = [](const std::string &name, const char *what) {
        std::optional<SystemKind> kind = tryKindFromName(name);
        if (!kind)
            fatal("unknown system '", name, "'", what);
        return *kind;
    };
    std::vector<Flag> flags = {
        {.name = "--system", .metavar = "NAME",
         .dest = [&](const char *v) {
             cfg.kind = system(v, " (expected ULTRIX, MACH, INTEL, "
                                  "PA-RISC, NOTLB, BASE, HW-INVERTED, "
                                  "HW-MIPS or SPUR)");
         }},
        {.name = "--workload", .metavar = "NAME", .dest = &workload},
        {.name = "--trace", .metavar = "PATH", .dest = &trace_path},
        {.name = "--l1", .metavar = "BYTES", .dest = &cfg.l1.sizeBytes},
        {.name = "--l1-line", .metavar = "BYTES", .dest = &cfg.l1.lineSize},
        {.name = "--l2", .metavar = "BYTES", .dest = &cfg.l2.sizeBytes},
        {.name = "--l2-line", .metavar = "BYTES", .dest = &cfg.l2.lineSize},
        {.name = "--assoc", .metavar = "N", .dest = &cfg.l1.assoc},
        {.name = "--tlb", .metavar = "N", .dest = &cfg.tlbEntries},
        {.name = "--protected", .metavar = "N",
         .dest = &cfg.tlbProtectedSlots},
        {.name = "--page-bits", .metavar = "N", .dest = &cfg.pageBits},
        {.name = "--interrupt", .metavar = "CYCLES",
         .dest = &cfg.costs.interruptCycles},
        {.name = "--hpt-ratio", .metavar = "N", .dest = &cfg.hptRatio},
        {.name = "--ctx-switch", .metavar = "N",
         .dest = &cfg.ctxSwitchInterval},
        {.name = "--l2-tlb", .metavar = "N", .dest = &cfg.l2TlbEntries},
        {.name = "--asid-bits", .metavar = "N", .dest = &cfg.tlbAsidBits},
        {.name = "--unified-l2", .dest = &cfg.unifiedL2},
        {.name = "--json", .dest = &json},
        {.name = "--fuzz-report", .metavar = "FILE",
         .dest = &fuzz_report_path},
        {.name = "--sweep-systems", .metavar = "A,B",
         .dest = [&](const char *v) {
             std::string list = v;
             for (std::size_t pos = 0; pos <= list.size();) {
                 std::size_t comma = list.find(',', pos);
                 if (comma == std::string::npos)
                     comma = list.size();
                 sweep_systems.push_back(system(
                     list.substr(pos, comma - pos), " in --sweep-systems"));
                 pos = comma + 1;
             }
         }},
        {.name = "--shard-merge", .dest = &shard_merge},
        {.name = "--crash-after", .metavar = "SPEC",
         .dest = [&](const char *v) {
             crash_plan = CrashPlan::parse(v).orThrow();
         }},
        {.name = "--crash-fuzz", .metavar = "N", .dest = &crash_fuzz,
         .positive = true},
    };
    std::vector<Flag> shared = opts.flags();
    flags.insert(flags.end(), shared.begin(), shared.end());
    parseFlags(argc, argv, flags);
    opts.refuseShardObservers();
    cfg.l2.assoc = cfg.l1.assoc; // --assoc sets both levels
    opts.applyTo(cfg);

    // Fuzz mode replaces the simulation entirely: run the seeded
    // differential campaign and report. The JSON artifact is
    // byte-stable for a given seed (CI compares two runs with cmp).
    if (opts.fuzz > 0) {
        DiffOptions dopts;
        dopts.seed = opts.seed;
        if (opts.cores > 1)
            dopts.forceCores = opts.cores;
        FuzzReport report = DiffRunner(dopts).run(opts.fuzz);
        std::string dumped = report.toJson().dump(2);
        if (!fuzz_report_path.empty()) {
            std::ofstream os(fuzz_report_path,
                             std::ios::out | std::ios::trunc);
            if (!os.is_open())
                throw VmsimError(errnoError(fuzz_report_path,
                                            "cannot open fuzz report "
                                            "for writing"));
            os << dumped << '\n';
        } else {
            std::cout << dumped << '\n';
        }
        std::cerr << report.toString() << '\n';
        return report.ok() ? 0 : 1;
    }

    // Crash-fuzz mode: hammer sharded sweeps with seeded SIGKILLs and
    // assert journal integrity plus merge byte-identity.
    if (crash_fuzz > 0) {
        CrashFuzzOptions copts;
        copts.campaigns = crash_fuzz;
        copts.seed = opts.seed;
        copts.dir = opts.shardDir; // optional scratch override
        CrashFuzzReport report = runCrashFuzz(copts);
        std::cout << report.toJson().dump(2) << '\n';
        std::cerr << report.toString() << '\n';
        return report.ok() ? 0 : 1;
    }

    fatalIf(opts.shardDir.empty() &&
                (shard_merge || !opts.shardOwner.empty() ||
                 crash_plan.armed()),
            "--shard-merge/--shard-owner/--crash-after need "
            "--shard-dir=D");

    // Sharded-sweep modes: the grid is the config above crossed with
    // the --seeds and --sweep-systems axes — every worker and the
    // merge must be launched with identical sweep-defining flags
    // (meta.json fingerprinting enforces it).
    if (!opts.shardDir.empty()) {
        SweepSpec spec;
        spec.base(cfg)
            .instructions(opts.instructions)
            .warmup(opts.warmup)
            .seeds(opts.seeds);
        if (!sweep_systems.empty())
            spec.systems(sweep_systems);
        if (shard_merge) {
            ShardMerge merged =
                mergeShardDir(opts.shardDir, spec).orThrow();
            merged.results.writeCsv(std::cout);
            std::cerr << "shard-merge: " << merged.completed << "/"
                      << spec.numCells() << " cells committed, "
                      << merged.missing << " missing\n";
            return merged.missing == 0 ? 0 : 1;
        }
        installShutdownHandler();
        ShardOptions sopts;
        sopts.dir = opts.shardDir;
        sopts.owner = opts.shardOwner;
        sopts.leaseSeconds = opts.leaseSeconds;
        sopts.faults = opts.faults;
        sopts.batchSize = opts.batch;
        sopts.verify = opts.check;
        sopts.crash = crash_plan;
        std::size_t committed = runShardWorker(spec, sopts);
        if (shutdownRequested()) {
            std::cerr << "shard worker interrupted after committing "
                      << committed
                      << " cells; rerun with the same --shard-dir to "
                         "resume\n";
            return kExitInterrupted;
        }
        ShardScan scan = scanShardDir(opts.shardDir, spec).orThrow();
        std::cerr << "shard worker committed " << committed
                  << " cells; " << scan.done << "/" << spec.numCells()
                  << " cells done\n";
        return 0;
    }

    const Counter warmup_instrs = opts.resolvedWarmup();

    // Assemble the observability attachments: every requested exporter
    // sees the same event stream through one fan-out sink.
    MultiSink sinks;
    std::unique_ptr<JsonlEventWriter> events;
    if (!opts.obs.traceEvents.empty()) {
        events =
            std::make_unique<JsonlEventWriter>(opts.obs.traceEvents);
        sinks.add(events.get());
    }
    std::unique_ptr<ChromeTraceWriter> chrome;
    if (!opts.obs.chromeTrace.empty()) {
        chrome =
            std::make_unique<ChromeTraceWriter>(opts.obs.chromeTrace);
        sinks.add(chrome.get());
    }
    StatsRegistry registry;
    std::unique_ptr<StatsSink> stats;
    if (!opts.obs.statsJson.empty()) {
        stats = std::make_unique<StatsSink>(registry);
        sinks.add(stats.get());
    }
    std::unique_ptr<IntervalSampler> sampler;
    if (opts.obs.interval > 0)
        sampler = std::make_unique<IntervalSampler>(opts.obs.interval);
    // --check reconciles the event stream against the counters, so it
    // always collects events (alongside any exporters).
    std::unique_ptr<CollectingSink> collector;
    if (opts.check) {
        collector = std::make_unique<CollectingSink>();
        sinks.add(collector.get());
    }
    // Distribution-level attribution rides along whenever a stats dump
    // or the checker wants it.
    std::unique_ptr<LatencyCollector> latency;
    if (!opts.obs.statsJson.empty() || opts.check)
        latency = std::make_unique<LatencyCollector>();
    // Live telemetry for the single "cell" this run is.
    std::unique_ptr<SweepTelemetry> telemetry;
    if (opts.obs.telemetry()) {
        TelemetryOptions topts;
        topts.periodSeconds =
            opts.obs.progressSeconds > 0 ? opts.obs.progressSeconds : 2.0;
        topts.progressPath = opts.obs.progressOut;
        topts.toStderr =
            opts.obs.progressSeconds > 0 && opts.obs.progressOut.empty();
        telemetry = std::make_unique<SweepTelemetry>(topts, 1, 1);
        telemetry->beginCell(0, 0);
        telemetry->start();
    }

    RunHooks hooks;
    hooks.sink = sinks.empty() ? nullptr : &sinks;
    hooks.sampler = sampler.get();
    hooks.latency = latency.get();
    if (telemetry)
        hooks.progress = telemetry->progressCounter(0);
    std::unique_ptr<FaultySink> faulty_sink;
    if (opts.faults.writeFail > 0) {
        faulty_sink = std::make_unique<FaultySink>(
            hooks.sink, opts.faults, faultStream(opts.faults.seed, 0, 0) ^ 1);
        hooks.sink = faulty_sink.get();
    }
    if (opts.faults.any()) {
        EventSink *obs_sink = sinks.empty() ? nullptr : &sinks;
        hooks.wrapTrace = [&opts, obs_sink](
                              std::unique_ptr<TraceSource> inner) {
            return std::make_unique<FaultyTraceSource>(
                std::move(inner), opts.faults,
                faultStream(opts.faults.seed, 0, 0), obs_sink);
        };
    }

    hooks.batch = opts.batch;

    Results r = [&] {
        if (!trace_path.empty()) {
            auto trace = TraceFileReader::open(trace_path).orThrow();
            std::unique_ptr<TraceSource> source = std::move(trace);
            if (hooks.wrapTrace)
                source = hooks.wrapTrace(std::move(source));
            System sys(cfg);
            sys.attachEventSink(hooks.sink);
            sys.attachSampler(hooks.sampler);
            sys.attachLatency(hooks.latency);
            sys.attachProgress(hooks.progress);
            sys.setBatchSize(opts.batch);
            return sys.run(*source, opts.instructions, trace_path,
                           warmup_instrs);
        }
        return runOnce(cfg, workload, opts.instructions, warmup_instrs,
                       hooks);
    }();

    if (telemetry) {
        telemetry->endCell(0, true);
        telemetry->stop();
    }

    if (opts.check) {
        InvariantChecker checker(cfg);
        CheckReport rep = checker.checkAll(
            r, &collector->events(),
            sampler ? &sampler->intervals() : nullptr, latency.get());
        if (telemetry)
            checkTelemetry(telemetry->snapshot(), true, rep);
        std::cerr << "check: " << rep.toString() << '\n';
        if (!rep.ok())
            return 1;
    }

    if (chrome)
        chrome->finish();
    if (!opts.obs.statsJson.empty()) {
        Json out = Json::object();
        out.set("results", r.toJson());
        if (latency)
            exportLatency(*latency, registry);
        out.set("stats", registry.toJson());
        if (sampler)
            out.set("intervals", intervalsToJson(sampler->intervals()));
        std::ofstream os(opts.obs.statsJson,
                         std::ios::out | std::ios::trunc);
        if (!os.is_open())
            throw VmsimError(errnoError(opts.obs.statsJson,
                                        "cannot open stats JSON for "
                                        "writing"));
        os << out.dump(2) << '\n';
    }

    if (json) {
        Json out = r.toJson();
        out.set("config", cfg.toString());
        std::cout << out.dump(2) << '\n';
        if (sampler) {
            std::cout << '\n';
            sampler->writeCsv(std::cout);
        }
        return 0;
    }

    std::cout << "config: " << cfg.toString() << "\n\n";
    r.printSummary(std::cout);

    const VmStats &s = r.vmStats();
    double per_k = 1000.0 / static_cast<double>(r.userInstrs());
    std::cout << "\n  user TLB misses / 1K instructions: I="
              << TextTable::fmt(per_k * s.itlbMisses, 3)
              << " D=" << TextTable::fmt(per_k * s.dtlbMisses, 3)
              << "\n  interrupt sweep: @10="
              << TextTable::fmt(r.interruptCpiAt(10), 5) << " @50="
              << TextTable::fmt(r.interruptCpiAt(50), 5) << " @200="
              << TextTable::fmt(r.interruptCpiAt(200), 5) << '\n';

    if (sampler) {
        std::cout << "\ninterval series (every " << opts.obs.interval
                  << " instructions):\n";
        sampler->writeCsv(std::cout);
    }
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    // One boundary for every failure mode: structured errors print
    // their [code] line, fatal()s the one line they already printed,
    // and nothing escapes as an uncaught exception (which would abort
    // with no useful diagnostic).
    return vmsim::guardedMain(argc, argv, runCli);
}
