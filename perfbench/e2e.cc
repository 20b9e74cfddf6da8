#include <sys/resource.h>

#include <algorithm>

#include "harness.hh"

namespace perf
{

namespace
{

/** SweepRunner's default trace-cache budget. */
constexpr std::size_t kCacheBudget = std::size_t{256} << 20;

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // anonymous namespace

CellBench::CellBench(const PerfWorkload &w) : w_(w)
{
    if (w.observed)
        obs_.interval = kObservedInterval;
}

void
CellBench::setup()
{
    runner_.reset();
    cache_.reset();
    if (w_.traceCache) {
        cache_ = std::make_unique<TraceCache>(kCacheBudget);
        for (const std::string &wl : w_.spec.workloadAxis())
            cache_->acquire(wl, w_.spec.baseConfig().seed,
                            executedPerCell(w_.spec));
    }
    runner_ = std::make_unique<CellRunner>(w_.spec, obs_, RetryPolicy{},
                                           faults_, 0, w_.observed,
                                           w_.observed, cache_.get());
    runner_->run(0);
}

std::string
auditCell(const SweepSpec &spec, std::size_t flat, const CellExecution &ex,
          const std::map<std::string, std::string> *expected,
          std::uint64_t &digest)
{
    digest = 0;
    if (!ex.outcome.ok)
        return ex.outcome.error.toString();
    const CheckReport rep =
        InvariantChecker(spec.cell(flat).config).check(ex.results);
    if (!rep.ok())
        return rep.toString();
    digest = resultsDigest(ex.results);
    if (!expected)
        return "";
    auto it = expected->find(cellLabel(spec, flat));
    if (it == expected->end())
        return "no committed digest";
    if (it->second != hex64(digest))
        return "digest " + hex64(digest) + " != committed " + it->second;
    return "";
}

RunReport
runEndToEnd(const PerfWorkload &w, const RunLength &len,
            const std::map<std::string, std::string> *expected)
{
    const SweepSpec &spec = w.spec;
    const std::size_t n = spec.numCells();
    RunReport run;
    run.digests.assign(n, 0);

    CellBench bench(w);
    std::vector<double> setupTimes;
    std::vector<std::vector<double>> times(n);
    std::vector<double> passWall;
    std::vector<CellExecution> execs(n);
    const double start = nowSeconds();
    for (unsigned pass = 0;
         pass < len.minPasses || nowSeconds() - start < len.seconds;
         ++pass) {
        const double s0 = nowSeconds();
        do {
            const double t0 = nowSeconds();
            bench.setup();
            setupTimes.push_back(nowSeconds() - t0);
        } while (nowSeconds() - s0 < len.setupSeconds);

        const double p0 = nowSeconds();
        for (std::size_t i = 0; i < n; ++i) {
            const double t0 = nowSeconds();
            CellExecution ex = bench.run(i);
            times[i].push_back(nowSeconds() - t0);
            execs[i] = std::move(ex);
        }
        passWall.push_back(nowSeconds() - p0);

        // Audit after the timed region; later passes must reproduce the
        // first pass's digests exactly.
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t d = 0;
            std::string why = auditCell(spec, i, execs[i],
                                        pass == 0 ? expected : nullptr, d);
            if (pass == 0)
                run.digests[i] = d;
            else if (why.empty() && d != run.digests[i])
                why = "digest changed between passes";
            ++run.attempted;
            if (!why.empty()) {
                ++run.failed;
                run.problems.push_back(cellLabel(spec, i) + ": " + why);
            }
        }
    }

    if (const TraceCache *cache = bench.cache()) {
        // Every cell must have replayed a pre-warmed recording.
        const TraceCacheStats st = cache->stats();
        if (st.misses != spec.workloadDim() || st.fallbacks != 0)
            run.problems.push_back(
                "trace cache: " + std::to_string(st.misses) +
                " misses, " + std::to_string(st.fallbacks) +
                " fallbacks after pre-warm");
    }

    // Each cell keeps its fastest pass. Other tenants of the host only
    // ever add time; with bursty background load the per-cell minimum
    // varied about a quarter as much between runs as the median did.
    std::vector<double> best;
    double sumBest = 0;
    for (const std::vector<double> &t : times) {
        best.push_back(*std::min_element(t.begin(), t.end()));
        sumBest += best.back();
    }
    const double instrs =
        static_cast<double>(executedPerCell(spec)) * static_cast<double>(n);
    run.metrics = {
        {"sim_mips", instrs / sumBest / 1e6, "Minstr/s"},
        {"wall_s", *std::min_element(passWall.begin(), passWall.end()), "s"},
        {"cell_ms_p50", median(best) * 1e3, "ms"},
        {"cell_ms_p90", percentile(best, 0.9) * 1e3, "ms"},
        {"setup_s", median(setupTimes), "s"},
        {"peak_rss_mb", peakRssMib(), "MiB"},
    };
    return run;
}

} // namespace perf
