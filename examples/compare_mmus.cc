/**
 * @file
 * compare_mmus: the paper's headline experiment in miniature.
 *
 * Declares one SweepSpec — nine memory-management organizations (the
 * paper's six plus the Section 4.2 interpolations) on identical
 * caches against one workload — runs it on the parallel SweepRunner,
 * and prints a comparison table: MCPI, VMCPI, interrupt CPI at the
 * paper's three costs, and total CPI.
 *
 * Usage: compare_mmus [workload] [instructions] [jobs]
 *   workload:     gcc | vortex | ijpeg   (default vortex)
 *   instructions: per-system instruction count (default 2000000)
 *   jobs:         worker threads (default: hardware concurrency)
 */

#include <iostream>

#include "vmsim.hh"

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    std::string workload = argc > 1 ? argv[1] : "vortex";
    Counter instrs =
        argc > 2 ? parseU64(argv[2], "instructions").orThrow() : 2'000'000;
    unsigned jobs = argc > 3 ? parseU32(argv[3], "jobs").orThrow() : 0;
    // Refuse an unknown workload here, on one line, before any cell
    // runs (a sweep cell would report the failure and carry on).
    makeWorkload(workload, 0);

    SimConfig base;
    base.l1 = CacheParams{64_KiB, 64};
    base.l2 = CacheParams{1_MiB, 128};
    base.costs.interruptCycles = 50;

    SweepSpec spec;
    spec.base(base)
        .systems({SystemKind::Base, SystemKind::Ultrix,
                  SystemKind::Mach, SystemKind::Intel,
                  SystemKind::Parisc, SystemKind::Notlb,
                  SystemKind::HwInverted, SystemKind::HwMips,
                  SystemKind::Spur})
        .workloads({workload})
        .instructions(instrs)
        .warmup(instrs / 2);

    std::cout << "Comparing MMU / TLB-refill / page-table organizations"
              << " on " << workload << " (" << instrs
              << " instructions, 64KB/1MB caches)\n\n";

    SweepResults res = SweepRunner(jobs).run(spec);

    TextTable table;
    table.setHeader({"system", "MCPI", "VMCPI", "int@10", "int@50",
                     "int@200", "CPI@50", "overhead@50"});

    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        const Results &r = res.at(CellIndex{.system = ki});
        double total = r.totalCpi();
        double overhead =
            (r.vmcpi() + r.interruptCpi()) / total * 100.0;
        table.addRow({kindName(spec.systemAxis()[ki]),
                      TextTable::fmt(r.mcpi(), 4),
                      TextTable::fmt(r.vmcpi(), 5),
                      TextTable::fmt(r.interruptCpiAt(10), 5),
                      TextTable::fmt(r.interruptCpiAt(50), 5),
                      TextTable::fmt(r.interruptCpiAt(200), 5),
                      TextTable::fmt(total, 4),
                      TextTable::fmt(overhead, 1) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nReading guide (paper Section 4.2): INTEL's "
                 "hardware walk avoids interrupts and\nI-cache "
                 "pollution; PA-RISC's inverted table packs PTEs "
                 "densely; HW-INVERTED\nmerges the two (as PowerPC / "
                 "PA-7200 did) and should be the cheapest TLB\n"
                 "mechanism overall.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
