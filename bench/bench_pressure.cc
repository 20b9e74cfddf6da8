/**
 * @file
 * Extension: memory pressure — VMCPI under a frame budget.
 *
 * The paper assumes physical memory large enough to hold every page an
 * application touches, so its designs never take a major fault. This
 * bench lifts that assumption: it sweeps a frame budget (--phys-mb-list,
 * default 4/8/16 MiB plus an unlimited baseline) crossed with the three
 * reclaim policies (FIFO/LRU/CLOCK) across the headline organizations,
 * and reports total CPI with the major-fault term broken out.
 *
 * The interesting contrast: under pressure the page-table organization
 * stops mattering — the fault CPI term dwarfs the refill-mechanism
 * differences the paper measures — which is exactly why the paper holds
 * memory constant. The unlimited column reproduces the paper's regime
 * and must match the budget-free binaries bit for bit.
 *
 * A machine-readable artifact (--pressure-json=PATH, default
 * BENCH_pressure.json) records every (system, budget, policy) point so
 * CI can track the fault model across commits.
 *
 * Usage: bench_pressure [--csv] [--instructions=N] [--jobs=N]
 *                       [--phys-mb-list=A,B] [--pressure-json=PATH]
 */

#include <cstring>
#include <fstream>

#include "bench_common.hh"

namespace
{

using namespace vmsim;
using namespace vmsim::bench;

/** One point of the sweep: a frame budget (0 = unlimited) + policy. */
struct PressurePoint {
    std::uint64_t mb = 0;
    ReclaimPolicy policy = ReclaimPolicy::Fifo;
    std::string label;
};

std::vector<PressurePoint>
buildPoints(const std::vector<std::uint64_t> &budgets_mb)
{
    std::vector<PressurePoint> points;
    points.push_back({0, ReclaimPolicy::Fifo, "inf"});
    static constexpr ReclaimPolicy kPolicies[] = {
        ReclaimPolicy::Fifo, ReclaimPolicy::Lru, ReclaimPolicy::Clock};
    for (ReclaimPolicy p : kPolicies)
        for (std::uint64_t mb : budgets_mb)
            points.push_back({mb, p,
                              std::string(reclaimPolicyName(p)) + "/" +
                                  std::to_string(mb) + "M"});
    return points;
}

/** Dump every measured point to @p path as the BENCH_pressure.json
 *  artifact; a write failure is reported but non-fatal (the tables on
 *  stdout are the primary output). */
void
writeArtifact(const std::string &path, const SweepSpec &spec,
              const SweepResults &res,
              const std::vector<PressurePoint> &points,
              const BenchOptions &opts)
{
    Json out = Json::object();
    out.set("benchmark", Json("pressure"));
    out.set("workload", Json(spec.workloadAxis().front()));
    out.set("instructions",
            Json(static_cast<double>(opts.instructions)));
    Json rows = Json::array();
    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        for (std::size_t vi = 0; vi < points.size(); ++vi) {
            CellIndex idx{.system = ki, .variant = vi};
            Json p = Json::object();
            p.set("system", Json(kindName(spec.systemAxis()[ki])));
            p.set("budget_mb",
                  Json(static_cast<double>(points[vi].mb)));
            p.set("policy", Json(reclaimPolicyName(points[vi].policy)));
            p.set("total_cpi", Json(res.meanMetric(idx, [](
                                        const Results &r) {
                      return r.totalCpi();
                  })));
            p.set("fault_cpi", Json(res.meanMetric(idx, [](
                                        const Results &r) {
                      return r.faultCpi();
                  })));
            auto counter = [&](Counter VmStats::*field) {
                return res.meanMetric(idx, [field](const Results &r) {
                    return static_cast<double>(r.vmStats().*field);
                });
            };
            p.set("major_faults", Json(counter(&VmStats::majorFaults)));
            p.set("evictions", Json(counter(&VmStats::evictions)));
            p.set("writebacks", Json(counter(&VmStats::writebacks)));
            p.set("pages_touched",
                  Json(counter(&VmStats::pagesTouched)));
            rows.push(std::move(p));
        }
    }
    out.set("points", std::move(rows));

    std::ofstream os(path, std::ios::out | std::ios::trunc);
    if (!os.is_open()) {
        std::cerr << "bench_pressure: cannot write " << path << '\n';
        return;
    }
    os << out.dump(2) << '\n';
    std::cerr << "pressure: " << spec.systemAxis().size() * points.size()
              << " points -> " << path << '\n';
}

} // anonymous namespace

static int
benchMain(int argc, char **argv)
{
    // Peel our own artifact-path flag before the shared parser (which
    // rejects flags it does not know) sees it.
    std::string json_path = "BENCH_pressure.json";
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--pressure-json=", 16) == 0)
            json_path = argv[i] + 16;
        else
            args.push_back(argv[i]);
    }
    BenchOptions opts = BenchOptions::parse(
        static_cast<int>(args.size()), args.data());

    std::vector<std::uint64_t> budgets_mb = opts.physMbList;
    if (budgets_mb.empty())
        budgets_mb = {4, 8, 16};
    const std::vector<PressurePoint> points = buildPoints(budgets_mb);

    banner("Memory pressure: total CPI vs frame budget and reclaim "
           "policy");
    std::cout << "caches: 64KB/1MB, 64/128B lines; major fault "
              << SimConfig{}.faultReadCycles << " cycles (+"
              << SimConfig{}.faultWritebackCycles
              << " per dirty writeback); inf = paper's "
                 "unlimited-memory regime\n\n";

    std::vector<ConfigVariant> variants;
    for (const PressurePoint &pt : points)
        variants.push_back({pt.label, [pt](SimConfig &cfg) {
                                if (pt.mb == 0)
                                    return;
                                cfg.physFrames =
                                    (pt.mb << 20) >> cfg.pageBits;
                                cfg.reclaimPolicy = pt.policy;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems()).workloads({"gcc"}).variants(variants);
    SweepResults res = runSweep(opts, spec);

    // One table per policy: systems down, budgets across, the shared
    // unlimited baseline as the first column.
    for (std::size_t pi = 0; pi < 3; ++pi) {
        const ReclaimPolicy policy = points[1 + pi * budgets_mb.size()]
                                         .policy;
        std::vector<std::string> header = {"system", "inf"};
        for (std::uint64_t mb : budgets_mb)
            header.push_back(std::to_string(mb) + "M");
        header.push_back("mf/kI @" + std::to_string(budgets_mb.front()) +
                         "M");
        TextTable table;
        table.setHeader(header);
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            row.push_back(TextTable::fmt(
                res.meanMetric({.system = ki, .variant = 0},
                               [](const Results &r) {
                                   return r.totalCpi();
                               }),
                5));
            for (std::size_t bi = 0; bi < budgets_mb.size(); ++bi) {
                const std::size_t vi = 1 + pi * budgets_mb.size() + bi;
                row.push_back(TextTable::fmt(
                    res.meanMetric({.system = ki, .variant = vi},
                                   [](const Results &r) {
                                       return r.totalCpi();
                                   }),
                    5));
            }
            const std::size_t tight = 1 + pi * budgets_mb.size();
            double mf_per_ki = res.meanMetric(
                {.system = ki, .variant = tight},
                [](const Results &r) {
                    Counter n = r.userInstrs();
                    return n ? 1000.0 *
                                   static_cast<double>(
                                       r.vmStats().majorFaults) /
                                   static_cast<double>(n)
                             : 0.0;
                });
            row.push_back(TextTable::fmt(mf_per_ki, 3));
            table.addRow(row);
        }
        std::cout << "reclaim=" << reclaimPolicyName(policy) << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    writeArtifact(json_path, spec, res, points, opts);

    std::cout << "Expected shape: CPI rises as the budget tightens and "
                 "the fault term\nswamps the refill-mechanism "
                 "differences; the inf column must equal the\n"
                 "budget-free run exactly (identity is tested in "
                 "pressure_test).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
