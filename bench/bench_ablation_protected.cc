/**
 * @file
 * Ablation A3: protected TLB slots. ULTRIX and MACH reserve the 16
 * lowest TLB slots for root/kernel-level PTE mappings (paper Table
 * 1); INTEL and PA-RISC leave the TLB unpartitioned. This ablation
 * runs the MIPS-style systems with and without the reservation
 * (variant axis) to show what the partition buys: without it,
 * user-page churn evicts the UPT/KPT mappings and every user miss
 * re-runs the nested handlers.
 *
 * Usage: bench_ablation_protected [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Ablation: protected TLB slots (16 reserved vs none)");
    std::cout << "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs\n\n";

    std::vector<ConfigVariant> variants;
    for (unsigned prot : {16u, 0u})
        variants.push_back({std::to_string(prot) + "prot",
                            [prot](SimConfig &cfg) {
                                cfg.tlbProtectedSlots = prot;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::HwMips})
        .workloads({"gcc", "vortex"})
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    auto nestedWalks = [](const Results &r) {
        return static_cast<double>(r.vmStats().rhandlerCalls +
                                   r.vmStats().khandlerCalls);
    };
    auto intCpi = [](const Results &r) { return r.interruptCpi(); };

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "nested walks@16prot",
                         "nested walks@0prot", "VMCPI@16prot",
                         "VMCPI@0prot", "intCPI@16prot", "intCPI@0prot"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> nested, vmcpi, intcpi;
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                CellIndex idx{.system = ki, .workload = wi,
                              .variant = vi};
                nested.push_back(std::to_string(static_cast<Counter>(
                    res.meanMetric(idx, nestedWalks))));
                vmcpi.push_back(
                    TextTable::fmt(res.meanMetric(idx, vmcpiOf), 5));
                intcpi.push_back(
                    TextTable::fmt(res.meanMetric(idx, intCpi), 5));
            }
            table.addRow({kindName(spec.systemAxis()[ki]), nested[0],
                          nested[1], vmcpi[0], vmcpi[1], intcpi[0],
                          intcpi[1]});
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: removing the partition multiplies "
                 "nested (kernel/root)\nwalks once user pressure evicts "
                 "the page-table-page mappings.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
