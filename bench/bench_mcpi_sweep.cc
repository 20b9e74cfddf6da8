/**
 * @file
 * MCPI companion sweep (Table 2 over the Figure 6 grid): the
 * memory-system cost side of the study. For each workload, prints
 * BASE's MCPI breakdown (L1i/L1d/L2i/L2d components) over L1 sizes at
 * the featured 64/128-byte linesizes, then each VM system's MCPI
 * *excess* over BASE — the VM-inflicted cache misses that drive the
 * paper's Section 4.4 doubling result, shown per configuration.
 *
 * One SweepSpec covers BASE plus the five VM systems across every
 * (workload, L1) point; BASE's cells serve both as the breakdown
 * table and as the reference the excess rows subtract.
 *
 * Usage: bench_mcpi_sweep [--full] [--csv] [--instructions=N]
 *        [--jobs=N] [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("MCPI components and VM-inflicted excess (64/128-byte "
           "linesizes)");
    std::cout << "instructions/point=" << opts.instructions
              << " warmup=" << opts.resolvedWarmup() << "\n\n";

    // System axis: BASE first (the reference), then the VM systems.
    std::vector<SystemKind> kinds = {SystemKind::Base};
    kinds.insert(kinds.end(), paperVmSystems().begin(),
                 paperVmSystems().end());

    SweepSpec spec = paperSweep(opts);
    spec.systems(kinds)
        .workloads(workloadNames())
        .l1Sizes(paperL1Sizes(opts.full));
    SweepResults res = runSweep(opts, spec);

    const auto &l1_sizes = spec.l1Axis();

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        const std::string &workload = spec.workloadAxis()[wi];

        // BASE breakdown table (system index 0).
        TextTable base_table;
        base_table.setHeader({"L1/side", "L1i-miss", "L1d-miss",
                              "L2i-miss", "L2d-miss", "MCPI"});
        std::vector<double> base_mcpi;
        for (std::size_t l1i = 0; l1i < l1_sizes.size(); ++l1i) {
            CellIndex idx{.system = 0, .workload = wi, .l1 = l1i};
            auto comp = [&](double McpiBreakdown::*member) {
                return res.meanMetric(idx, [member](const Results &r) {
                    return r.mcpiBreakdown().*member;
                });
            };
            double total = res.meanMetric(idx, mcpiOf);
            base_mcpi.push_back(total);
            base_table.addRow(
                {sizeLabel(l1_sizes[l1i]),
                 TextTable::fmt(comp(&McpiBreakdown::l1iMiss), 4),
                 TextTable::fmt(comp(&McpiBreakdown::l1dMiss), 4),
                 TextTable::fmt(comp(&McpiBreakdown::l2iMiss), 4),
                 TextTable::fmt(comp(&McpiBreakdown::l2dMiss), 4),
                 TextTable::fmt(total, 4)});
        }
        std::cout << workload << " - BASE (no VM) MCPI components, "
                  << "1MB L2\n";
        emit(base_table, opts);

        // Per-system excess over BASE.
        TextTable excess;
        std::vector<std::string> header = {"system"};
        for (std::uint64_t l1 : l1_sizes)
            header.push_back(sizeLabel(l1));
        excess.setHeader(header);
        for (std::size_t ki = 1; ki < kinds.size(); ++ki) {
            std::vector<std::string> row = {kindName(kinds[ki])};
            for (std::size_t l1i = 0; l1i < l1_sizes.size(); ++l1i) {
                double m = res.meanMetric(
                    {.system = ki, .workload = wi, .l1 = l1i}, mcpiOf);
                row.push_back(TextTable::fmt(m - base_mcpi[l1i], 5));
            }
            excess.addRow(row);
        }
        std::cout << workload
                  << " - MCPI excess over BASE (VM-inflicted misses)\n";
        emit(excess, opts);
    }

    std::cout << "Expected shape: the excess is positive nearly "
                 "everywhere (handlers and\nPTEs displace user lines), "
                 "largest at small L1 caches for the software-\n"
                 "managed schemes, and near zero for INTEL (no handler "
                 "code to fetch).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
