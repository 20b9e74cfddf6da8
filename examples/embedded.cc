/**
 * @file
 * embedded: the paper's introduction motivates the study partly by
 * "more embedded designers tak[ing] advantage of low-overhead embedded
 * operating systems that provide virtual memory". This example asks
 * the study's question at embedded scale: tiny caches (8 KB L1 /
 * 128 KB L2), a small TLB (16 entries per side, 4 protected), slow
 * relative memory, and frequent context switches — which MMU
 * organization holds up?
 *
 * Results are replicated over several seeds (random TLB replacement
 * makes single runs noisy at 16 entries) and reported as mean ± spread
 * via runSeeds().
 *
 * Usage: embedded [workload] [instructions] [seeds]
 */

#include <iostream>

#include "vmsim.hh"

namespace
{

double
vmOverheadMetric(const vmsim::Results &r)
{
    return r.vmcpi() + r.interruptCpi();
}

double
totalCpiMetric(const vmsim::Results &r)
{
    return r.totalCpi();
}

} // anonymous namespace

static int
exampleMain(int argc, char **argv)
{
    using namespace vmsim;

    std::string workload = argc > 1 ? argv[1] : "gcc";
    Counter instrs =
        argc > 2 ? parseU64(argv[2], "instructions").orThrow() : 1'000'000;
    unsigned seeds = argc > 3 ? parseU32(argv[3], "seeds").orThrow() : 5;
    // Refuse an unknown workload here, on one line, before any cell
    // runs (a sweep cell would report the failure and carry on).
    makeWorkload(workload, 0);

    std::cout << "Embedded-profile comparison on " << workload << " ("
              << instrs << " instructions, " << seeds
              << " seeds)\n"
              << "8KB/128KB caches, 32/64B lines, 16-entry TLBs, "
                 "100-cycle interrupts,\ncontext switch every 50K "
                 "instructions\n\n";

    const SystemKind kinds[] = {
        SystemKind::Ultrix, SystemKind::Intel,      SystemKind::Parisc,
        SystemKind::Notlb,  SystemKind::HwInverted, SystemKind::Spur,
    };

    TextTable table;
    table.setHeader({"system", "VM overhead (mean)", "stddev", "min",
                     "max", "total CPI"});

    for (SystemKind kind : kinds) {
        SimConfig cfg;
        cfg.kind = kind;
        cfg.l1 = CacheParams{8_KiB, 32};
        cfg.l2 = CacheParams{128_KiB, 64};
        cfg.tlbEntries = 16;
        cfg.tlbProtectedSlots = 4;
        cfg.costs.interruptCycles = 100;
        cfg.ctxSwitchInterval = 50'000;

        SeedStats overhead = runSeeds(cfg, workload, instrs, instrs / 2,
                                      seeds, vmOverheadMetric);
        SeedStats cpi = runSeeds(cfg, workload, instrs, instrs / 2,
                                 seeds, totalCpiMetric);
        table.addRow({kindName(kind), TextTable::fmt(overhead.mean, 4),
                      TextTable::fmt(overhead.stddev, 4),
                      TextTable::fmt(overhead.min, 4),
                      TextTable::fmt(overhead.max, 4),
                      TextTable::fmt(cpi.mean, 3)});
    }
    table.print(std::cout);

    std::cout << "\nAt embedded scale the paper's conclusions sharpen: "
                 "interrupt-free refill\n(INTEL / HW-INVERTED) wins by "
                 "a wide margin, and NOTLB — which the paper\nnotes "
                 "needs a large (2MB+) L2 to compete — collapses on a "
                 "128KB L2, paying\na software handler on every L2 "
                 "miss. SPUR shares NOTLB's trigger but walks\nin "
                 "hardware, so it stays near the front: the mechanism, "
                 "not the table, is\nwhat matters here.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, exampleMain);
}
