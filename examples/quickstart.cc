/**
 * @file
 * Quickstart: the smallest useful vmsim program.
 *
 * Builds one simulated machine (the ULTRIX organization — MIPS-style
 * software-managed TLB with a two-tiered page table), runs one million
 * instructions of the gcc-like workload through it, and prints the
 * MCPI / VMCPI / interrupt accounting.
 *
 * Usage: quickstart [system] [workload] [instructions]
 *   system:       ULTRIX | MACH | INTEL | PA-RISC | NOTLB | BASE |
 *                 HW-INVERTED | HW-MIPS | SPUR       (default ULTRIX)
 *   workload:     gcc | vortex | ijpeg               (default gcc)
 *   instructions: instruction count                  (default 1000000)
 */

#include <iostream>

#include "vmsim.hh"

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    SimConfig cfg;
    cfg.kind = argc > 1 ? kindFromName(argv[1]) : SystemKind::Ultrix;
    std::string workload = argc > 2 ? argv[2] : "gcc";
    Counter instrs =
        argc > 3 ? parseU64(argv[3], "instructions").orThrow() : 1'000'000;
    // Refuse an unknown workload here, before any output.
    makeWorkload(workload, 0);

    // The paper's featured cache organization: 64 KB / 1 MB split
    // direct-mapped virtual caches with 64 B / 128 B lines.
    cfg.l1 = CacheParams{64_KiB, 64};
    cfg.l2 = CacheParams{1_MiB, 128};
    cfg.costs.interruptCycles = 50;

    Results r = runOnce(cfg, workload, instrs);
    r.printSummary(std::cout);

    std::cout << "\nVM overhead (VMCPI only, prior studies' accounting): "
              << TextTable::fmt(100 * r.vmcpi() / r.totalCpi(), 2)
              << "% of run time\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
