/**
 * @file
 * Section 4.4 / abstract [reconstructed]: total VM overhead including
 * VM-inflicted cache misses and interrupts.
 *
 * The paper's headline numbers: prior studies count only the refill
 * work (VMCPI) and land at 5-10% of run time; adding the cache misses
 * the VM system inflicts on the application (MCPI_vm - MCPI_base,
 * measurable only because BASE runs the same trace without any VM
 * system) roughly doubles that to 10-20%; adding interrupt overhead
 * brings the total to 10-30%.
 *
 * For each workload and system, prints the three accountings side by
 * side as percentages of total run time (at 50-cycle interrupts; the
 * @200 column shows the pessimistic end). BASE rides along as system
 * index 0 of the sweep and provides the reference MCPI.
 *
 * Usage: bench_total_overhead [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Total VM overhead vs BASE (paper Section 4.4, "
           "reconstructed)");
    std::cout << "caches: 64KB/1MB split direct-mapped, 64/128B lines\n"
              << "naive   = VMCPI only (prior studies' accounting)\n"
              << "+misses = VMCPI + (MCPI - MCPI_BASE)  [VM-inflicted "
                 "cache misses]\n"
              << "+ints   = the above + interrupt CPI\n\n";

    std::vector<SystemKind> kinds = {SystemKind::Base};
    kinds.insert(kinds.end(), paperVmSystems().begin(),
                 paperVmSystems().end());

    SweepSpec spec = paperSweep(opts);
    spec.systems(kinds).workloads(workloadNames());
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        double base_mcpi =
            res.meanMetric({.system = 0, .workload = wi}, mcpiOf);

        TextTable table;
        table.setHeader({"system", "MCPI_base", "MCPI", "VMCPI",
                         "naive%", "+misses%", "+ints%@50",
                         "+ints%@200"});
        for (std::size_t ki = 1; ki < kinds.size(); ++ki) {
            CellIndex idx{.system = ki, .workload = wi};
            auto metric = [&](auto fn) { return res.meanMetric(idx, fn); };

            double mcpi = metric(mcpiOf);
            double naive = metric(vmcpiOf);
            // Percent-of-runtime accountings, per run then averaged.
            auto pctAt = [&](auto overhead, Cycles int_cost) {
                return metric([&](const Results &r) {
                    double int_cpi =
                        int_cost ? r.interruptCpiAt(int_cost) : 0.0;
                    double total =
                        1.0 + r.mcpi() + r.vmcpi() + int_cpi;
                    return 100.0 * overhead(r, int_cpi) / total;
                });
            };
            auto naiveOv = [](const Results &r, double) {
                return r.vmcpi();
            };
            auto missesOv = [&](const Results &r, double) {
                return r.vmcpi() +
                       std::max(0.0, r.mcpi() - base_mcpi);
            };
            auto intsOv = [&](const Results &r, double int_cpi) {
                return r.vmcpi() +
                       std::max(0.0, r.mcpi() - base_mcpi) + int_cpi;
            };
            table.addRow({kindName(kinds[ki]),
                          TextTable::fmt(base_mcpi, 4),
                          TextTable::fmt(mcpi, 4),
                          TextTable::fmt(naive, 4),
                          TextTable::fmt(pctAt(naiveOv, 0), 1) + "%",
                          TextTable::fmt(pctAt(missesOv, 0), 1) + "%",
                          TextTable::fmt(pctAt(intsOv, 50), 1) + "%",
                          TextTable::fmt(pctAt(intsOv, 200), 1) + "%"});
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: the +misses column roughly doubles "
                 "the naive column,\nand +ints raises it further - the "
                 "paper's 5-10% -> 10-20% -> 10-30% result.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
