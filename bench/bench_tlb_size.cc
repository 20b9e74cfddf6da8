/**
 * @file
 * TLB-size sensitivity [reconstructed]: the abstract's "systems are
 * fairly sensitive to TLB size".
 *
 * Sweeps the per-side TLB entry count over 16..512 for every
 * TLB-based organization and prints VMCPI (plus walk counts per 1K
 * instructions). The entry counts ride the SweepSpec's open-ended
 * variant axis (they are not one of the fixed cache axes).
 *
 * Usage: bench_tlb_size [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    const unsigned sizes[] = {16, 32, 64, 128, 256, 512};

    banner("TLB-size sensitivity (abstract result, reconstructed): "
           "VMCPI vs TLB entries per side");
    std::cout << "caches: 64KB/1MB split direct-mapped, 64/128B lines; "
              << "protected slots scale as entries/8 (16 at the "
                 "paper's 128)\n\n";

    std::vector<ConfigVariant> variants;
    for (unsigned n : sizes)
        variants.push_back({std::to_string(n), [n](SimConfig &cfg) {
                                cfg.tlbEntries = n;
                                cfg.tlbProtectedSlots = n / 8;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::HwInverted, SystemKind::HwMips})
        .workloads(workloadNames())
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        std::vector<std::string> header = {"system"};
        for (const ConfigVariant &v : spec.variantAxis())
            header.push_back(v.label);
        table.setHeader(header);

        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            for (std::size_t vi = 0; vi < spec.variantAxis().size();
                 ++vi) {
                double v = res.meanMetric(
                    {.system = ki, .workload = wi, .variant = vi},
                    vmcpiOf);
                row.push_back(TextTable::fmt(v, 5));
            }
            table.addRow(row);
        }
        std::cout << spec.workloadAxis()[wi] << " (VMCPI; "
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: VMCPI falls steeply with TLB size "
                 "until the workload's page\nworking set fits, and "
                 "vortex (the largest working set) stays sensitive "
                 "longest.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
