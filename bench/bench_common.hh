/**
 * @file
 * Shared plumbing for the benchmark harnesses: canonical config
 * builders, the sweep execution path and formatting helpers, used by
 * the table of figures (figures.hh) and the standalone benches.
 */

#ifndef VMSIM_BENCH_BENCH_COMMON_HH
#define VMSIM_BENCH_BENCH_COMMON_HH

#include <iostream>
#include <string>
#include <vector>

#include "vmsim.hh"

namespace vmsim::bench
{

/** The five headline VM organizations of the paper's figures. */
inline const std::vector<SystemKind> &
paperVmSystems()
{
    static const std::vector<SystemKind> kinds = {
        SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
        SystemKind::Parisc, SystemKind::Notlb,
    };
    return kinds;
}

/**
 * SweepSpec seeded from the shared bench options: the paper's
 * featured fixed point (64KB/1MB caches, 64/128-byte lines) as the
 * base config, plus the run-length, seed-replication and warmup
 * settings. Benches override whatever they sweep via the axes.
 */
inline SweepSpec
paperSweep(const BenchOptions &opts)
{
    SimConfig base;
    base.l1 = CacheParams{64_KiB, 64};
    base.l2 = CacheParams{1_MiB, 128};
    opts.applyTo(base);
    SweepSpec spec;
    spec.base(base)
        .instructions(opts.instructions)
        .warmup(opts.resolvedWarmup())
        .seeds(opts.seeds);
    return spec;
}

/** The sweep executor configured by --jobs, the --trace-events /
 *  --chrome-trace / --stats-json / --interval observability flags, the
 *  --retries / --journal / --resume / --inject-faults robustness
 *  flags, the --batch / --trace-cache-mb pipeline flags, and the
 *  --check invariant audit. */
inline SweepRunner
makeRunner(const BenchOptions &opts)
{
    SweepRunner runner(opts.jobs);
    runner.observe(opts.obs);
    runner.retry({opts.retries, opts.retryBackoff});
    if (!opts.journal.empty())
        runner.journal(opts.journal);
    runner.resume(opts.resume);
    runner.injectFaults(opts.faults);
    runner.batchSize(opts.batch);
    runner.traceCache(opts.traceCacheMb);
    runner.verify(opts.check);
    return runner;
}

/**
 * Report failed cells to stderr after a sweep. Returns the number of
 * failures so mains can choose their exit status (bench binaries keep
 * exiting 0: a marked-failed cell is the isolation working).
 */
inline std::size_t
reportFailures(const SweepResults &res)
{
    std::size_t failed = res.failedCount();
    if (failed == 0)
        return 0;
    std::cerr << failed << " of " << res.size()
              << " sweep cells failed:\n";
    for (std::size_t i = 0; i < res.size(); ++i) {
        const CellOutcome &o = res.outcomeAt(i);
        if (!o.ok)
            std::cerr << "  cell " << i << " (" << o.attempts
                      << " attempts): " << o.error.toString() << '\n';
    }
    return failed;
}

/**
 * Sharded bench execution (--shard-dir): run one worker process over
 * the shared shard directory, then merge every worker's log into
 * grid-ordered results. Concurrency comes from launching the binary N
 * times, not from --jobs; the merged results are byte-identical to a
 * single-process run of the same spec.
 */
inline SweepResults
runShardedSweep(const BenchOptions &opts, const SweepSpec &spec)
{
    installShutdownHandler();
    ShardOptions sopts;
    sopts.dir = opts.shardDir;
    sopts.owner = opts.shardOwner;
    sopts.leaseSeconds = opts.leaseSeconds;
    sopts.retry = {opts.retries, opts.retryBackoff};
    sopts.faults = opts.faults;
    sopts.batchSize = opts.batch;
    sopts.traceCacheMb = opts.traceCacheMb;
    sopts.verify = opts.check;
    std::size_t committed = runShardWorker(spec, sopts);
    if (shutdownRequested()) {
        inform("shard worker interrupted after committing ", committed,
               " cells; rerun with the same --shard-dir to resume");
        std::exit(kExitInterrupted);
    }
    ShardMerge merged = mergeShardDir(opts.shardDir, spec).orThrow();
    reportFailures(merged.results);
    return std::move(merged.results);
}

/**
 * The standard bench execution path: run @p spec on a runner built
 * from @p opts, then report any isolated cell failures to stderr.
 * Failed cells render as zero rows in the tables; the stderr report
 * is what tells the reader which zeros are real and which are
 * casualties. With --shard-dir the process instead acts as one worker
 * of a crash-tolerant sharded sweep (see core/shard.hh).
 */
inline SweepResults
runSweep(const BenchOptions &opts, const SweepSpec &spec)
{
    if (opts.fuzz) {
        // Differential self-check before spending time on the sweep:
        // a bench whose execution strategies disagree has no business
        // printing tables.
        DiffOptions dopts;
        dopts.seed = opts.seed;
        if (opts.cores > 1)
            dopts.forceCores = opts.cores;
        FuzzReport fuzz = DiffRunner(dopts).run(opts.fuzz);
        std::cerr << fuzz.toString() << '\n';
        fatalIf(!fuzz.ok(), "differential fuzz found ",
                fuzz.failures.size(), " failing tuples");
    }
    if (!opts.shardDir.empty())
        return runShardedSweep(opts, spec);
    installShutdownHandler();
    SweepResults res =
        makeRunner(opts).gracefulShutdown(true).run(spec);
    if (shutdownRequested()) {
        reportFailures(res);
        inform("sweep interrupted; canceled cells were not journaled ",
               "and rerun on --resume");
        std::exit(kExitInterrupted);
    }
    reportFailures(res);
    return res;
}

/** "64K" / "2M" style size label. */
inline std::string
sizeLabel(std::uint64_t bytes)
{
    if (bytes >= 1_MiB && bytes % 1_MiB == 0)
        return std::to_string(bytes >> 20) + "M";
    return std::to_string(bytes >> 10) + "K";
}

/** Emit a table as text or CSV per options. */
inline void
emit(const TextTable &table, const BenchOptions &opts)
{
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << '\n';
}

/** Section banner. */
inline void
banner(const std::string &title)
{
    std::cout << "### " << title << "\n\n";
}

} // namespace vmsim::bench

#endif // VMSIM_BENCH_BENCH_COMMON_HH
