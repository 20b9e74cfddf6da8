/**
 * @file
 * Ablation A1: cache associativity. The paper deliberately simulates
 * direct-mapped caches ("set associative or unified caches, while
 * giving better performance, would add too many variables") and notes
 * that page-table hotspotting "is easily solved with set
 * associativity". This ablation quantifies both claims: MCPI and
 * VMCPI at 1/2/4-way L1 and L2 for each system, with the way count
 * riding the SweepSpec variant axis.
 *
 * Usage: bench_ablation_assoc [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Ablation: cache associativity (paper simulates "
           "direct-mapped only)");
    std::cout << "caches: 64KB/1MB, 64/128B lines, LRU replacement for "
                 "associative configs\n\n";

    std::vector<ConfigVariant> variants;
    for (unsigned assoc : {1u, 2u, 4u})
        variants.push_back({std::to_string(assoc) + "way",
                            [assoc](SimConfig &cfg) {
                                cfg.l1.assoc = assoc;
                                cfg.l2.assoc = assoc;
                                cfg.l1.repl = CacheRepl::LRU;
                                cfg.l2.repl = CacheRepl::LRU;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems(paperVmSystems())
        .workloads({"gcc", "vortex"})
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        table.setHeader({"system", "MCPI@1way", "MCPI@2way", "MCPI@4way",
                         "VMCPI@1way", "VMCPI@2way", "VMCPI@4way"});
        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            std::vector<std::string> vm_cells;
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                CellIndex idx{.system = ki, .workload = wi,
                              .variant = vi};
                row.push_back(
                    TextTable::fmt(res.meanMetric(idx, mcpiOf), 4));
                vm_cells.push_back(
                    TextTable::fmt(res.meanMetric(idx, vmcpiOf), 5));
            }
            row.insert(row.end(), vm_cells.begin(), vm_cells.end());
            table.addRow(row);
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: associativity lowers VMCPI across "
                 "the board (page-table\nhotspots vanish, as the paper "
                 "predicts) and lowers MCPI for conflict-bound\n"
                 "workloads like gcc. Caveat: for cyclic access "
                 "patterns larger than the\ncache (vortex's cold "
                 "chase), LRU replacement thrashes where direct-mapped\n"
                 "placement retains a working fraction - MCPI can "
                 "rise with associativity.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
