/**
 * @file
 * Section 4.2 (closing discussion): interpolated VM organizations.
 *
 * The paper: "We can use these results to interpolate for the costs
 * of other VM organizations, such as an inverted page table with a
 * hardware-managed TLB, a MIPS-style page table with a
 * hardware-managed TLB, or a system with no TLB but a hardware-walked
 * page table (as in SPUR)" — and concludes that merging INTEL's
 * hardware-managed TLB with PA-RISC's inverted table (as PowerPC and
 * PA-7200 do) is the best of both.
 *
 * Runs the five paper systems plus the three interpolations and
 * prints VMCPI, interrupt CPI and total CPI side by side.
 *
 * Usage: bench_interpolated [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Interpolated organizations (paper Section 4.2): measured "
           "headline systems + hardware/table recombinations");
    std::cout << "caches: 64KB/1MB split direct-mapped, 64/128B lines; "
                 "50-cycle interrupts\n\n";

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::Notlb, SystemKind::HwInverted,
                  SystemKind::HwMips, SystemKind::Spur})
        .workloads(workloadNames());
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "VMCPI", "uhandler", "pte-cpi",
                         "intCPI", "MCPI", "total CPI"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            CellIndex idx{.system = ki, .workload = wi};
            auto metric = [&](auto fn) { return res.meanMetric(idx, fn); };
            double uhandler = metric([](const Results &r) {
                return r.vmcpiBreakdown().uhandler;
            });
            double pte_cpi = metric([](const Results &r) {
                VmcpiBreakdown b = r.vmcpiBreakdown();
                return b.upteL2 + b.upteMem + b.kpteL2 + b.kpteMem +
                       b.rpteL2 + b.rpteMem;
            });
            table.addRow(
                {kindName(spec.systemAxis()[ki]),
                 TextTable::fmt(metric(vmcpiOf), 5),
                 TextTable::fmt(uhandler, 5),
                 TextTable::fmt(pte_cpi, 5),
                 TextTable::fmt(metric([](const Results &r) {
                                    return r.interruptCpi();
                                }),
                                5),
                 TextTable::fmt(metric(mcpiOf), 4),
                 TextTable::fmt(metric([](const Results &r) {
                                    return r.totalCpi();
                                }),
                                4)});
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: HW-INVERTED (the PowerPC/PA-7200 "
                 "merge) combines INTEL's\nzero-interrupt walk with the "
                 "inverted table's cache fit and should post the\n"
                 "lowest VM-related overhead of the TLB-based schemes."
                 "\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
