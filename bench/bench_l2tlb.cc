/**
 * @file
 * Extension E2: a unified second-level TLB.
 *
 * The paper's designs refill a missing first-level TLB entry straight
 * from the page table; later MMUs interposed a large unified L2 TLB
 * so most L1 misses refill in a couple of cycles without an interrupt
 * or table walk. This bench sweeps the L2 TLB size (variant axis) for
 * every TLB-based organization and reports VM overhead (VMCPI +
 * intCPI@50) plus the L2 TLB hit rate.
 *
 * The interesting contrast: an L2 TLB helps the *software-managed*
 * schemes most, because every hit removes an interrupt and a handler
 * execution, not just a table reference — hardware-walked designs
 * have less left to save.
 *
 * Usage: bench_l2tlb [--csv] [--instructions=N] [--jobs=N] [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    const unsigned sizes[] = {0, 256, 512, 1024, 2048};
    const std::size_t hitrate_at = 3; // variant index of 1024 entries

    banner("Unified L2 TLB sweep: VM overhead (VMCPI + intCPI@50) vs "
           "L2 TLB entries");
    std::cout << "caches: 64KB/1MB, 64/128B lines; 128-entry L1 TLBs; "
                 "2-cycle L2 TLB hits\n\n";

    std::vector<ConfigVariant> variants;
    for (unsigned n : sizes)
        variants.push_back({n ? std::to_string(n) : "none",
                            [n](SimConfig &cfg) {
                                cfg.l2TlbEntries = n;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::HwInverted, SystemKind::HwMips})
        .workloads({"gcc", "vortex"})
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "none", "256", "512", "1024", "2048",
                         "hit rate @1024"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                double v = res.meanMetric(
                    {.system = ki, .workload = wi, .variant = vi},
                    [](const Results &r) {
                        return r.vmcpi() + r.interruptCpi();
                    });
                row.push_back(TextTable::fmt(v, 5));
            }
            double rate = res.meanMetric(
                {.system = ki, .workload = wi, .variant = hitrate_at},
                [](const Results &r) {
                    Counter walks = r.vmStats().itlbMisses +
                                    r.vmStats().dtlbMisses;
                    return walks ? 100.0 *
                                       static_cast<double>(
                                           r.vmStats().l2TlbHits) /
                                       static_cast<double>(walks)
                                 : 0.0;
                });
            row.push_back(TextTable::fmt(rate, 1) + "%");
            table.addRow(row);
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: overhead falls monotonically with L2 "
                 "TLB size; the\nsoftware-managed schemes converge "
                 "toward the hardware-walked ones because\neach hit "
                 "eliminates an interrupt plus handler execution.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
