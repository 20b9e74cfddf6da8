/**
 * @file
 * Ablation A6: unified vs split L2. The paper simulates split caches
 * at both levels and notes that unified caches, "while giving better
 * performance, would add too many variables". This ablation compares
 * split L2 (per-side size S each) against a unified L2 of the same
 * total capacity (2S shared) on the variant axis, reporting MCPI and
 * VMCPI.
 *
 * Usage: bench_ablation_unified [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Ablation: split vs unified L2 (equal total capacity)");
    std::cout << "caches: 64KB L1 per side, 64/128B lines; split = "
                 "2x1MB, unified = 1x2MB shared\n\n";

    std::vector<ConfigVariant> variants;
    for (bool unified : {false, true})
        variants.push_back({unified ? "unified" : "split",
                            [unified](SimConfig &cfg) {
                                cfg.unifiedL2 = unified;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems())
        .workloads(workloadNames())
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "MCPI split", "MCPI unified",
                         "VMCPI split", "VMCPI unified"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> mcpi, vmcpi;
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                CellIndex idx{.system = ki, .workload = wi,
                              .variant = vi};
                mcpi.push_back(
                    TextTable::fmt(res.meanMetric(idx, mcpiOf), 4));
                vmcpi.push_back(
                    TextTable::fmt(res.meanMetric(idx, vmcpiOf), 5));
            }
            table.addRow({kindName(spec.systemAxis()[ki]), mcpi[0],
                          mcpi[1], vmcpi[0], vmcpi[1]});
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: unified L2 lets the dominant side "
                 "(data, for these\nworkloads) claim more than half "
                 "the capacity, generally lowering MCPI;\nI/D conflict "
                 "interference can cut the other way for "
                 "streaming-heavy mixes.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
