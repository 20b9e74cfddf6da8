/**
 * @file
 * Section 4.3 [reconstructed]: the cost of precise interrupts.
 *
 * The paper sweeps the per-interrupt cost over {10, 50, 200} cycles
 * (Table 1) and concludes that "interrupts already account for a
 * large portion of memory-management overhead" — at the high end, the
 * interrupt overhead dwarfs the page-table walk itself for the
 * software-managed schemes, while INTEL's hardware-managed TLB pays
 * nothing.
 *
 * For each system and workload, prints VMCPI next to the interrupt
 * CPI at each swept cost and the resulting share of total VM-related
 * overhead attributable to the interrupt mechanism. (The interrupt
 * cost is applied at accounting time via interruptCpiAt(), so the
 * sweep needs one simulation per (system, workload) cell, not three.)
 *
 * Usage: bench_interrupt_cost [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Interrupt-cost sweep (paper Section 4.3, reconstructed): "
           "interrupt CPI vs VMCPI");
    std::cout << "caches: 64KB/1MB split direct-mapped, 64/128B lines; "
              << "interrupt cost in {10, 50, 200} cycles\n\n";

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems()).workloads(workloadNames());
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "VMCPI", "int/1Kinstr", "int@10",
                         "int@50", "int@200", "int share@200"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            CellIndex idx{.system = ki, .workload = wi};
            auto metric = [&](auto fn) { return res.meanMetric(idx, fn); };
            double vmcpi = metric(vmcpiOf);
            double per_k = metric([](const Results &r) {
                return 1000.0 *
                       static_cast<double>(r.vmStats().interrupts) /
                       static_cast<double>(r.userInstrs());
            });
            double i10 = metric([](const Results &r) {
                return r.interruptCpiAt(10);
            });
            double i50 = metric([](const Results &r) {
                return r.interruptCpiAt(50);
            });
            double i200 = metric([](const Results &r) {
                return r.interruptCpiAt(200);
            });
            double share = metric([](const Results &r) {
                double v = r.vmcpi();
                double i = r.interruptCpiAt(200);
                return (v + i) > 0 ? i / (v + i) : 0.0;
            });
            table.addRow({kindName(spec.systemAxis()[ki]),
                          TextTable::fmt(vmcpi, 5),
                          TextTable::fmt(per_k, 2),
                          TextTable::fmt(i10, 5), TextTable::fmt(i50, 5),
                          TextTable::fmt(i200, 5),
                          TextTable::fmt(100 * share, 1) + "%"});
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: INTEL's interrupt columns are zero "
                 "(hardware-managed TLB);\nfor the software-managed "
                 "schemes the interrupt share at 200 cycles exceeds "
                 "50%,\nsupporting the paper's call for cheaper "
                 "precise-interrupt handling.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
