/**
 * @file
 * Ablation A7: TLB associativity. The paper's TLBs are fully
 * associative (Table 1); many contemporary and later MMUs shipped
 * set-associative TLBs instead. This ablation compares fully
 * associative against 2/4/8-way set-associative TLBs of equal
 * capacity (variant axis), reporting user TLB misses per 1K
 * instructions and VMCPI.
 *
 * Usage: bench_ablation_tlbassoc [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    banner("Ablation: TLB associativity (paper: fully associative)");
    std::cout << "caches: 64KB/1MB, 64/128B lines; 128-entry TLBs; "
                 "set-assoc configs drop the protected partition\n\n";

    struct Org
    {
        unsigned assoc;
        const char *name;
    };
    const Org orgs[] = {
        {0, "full"}, {8, "8-way"}, {4, "4-way"}, {2, "2-way"}};

    // Set-associative variants also give up the protected partition
    // (a real constraint of indexed TLBs); INTEL and PA-RISC have
    // unpartitioned TLBs, so associativity is a pure apples-to-apples
    // change for them, while ULTRIX also loses its reservation.
    std::vector<ConfigVariant> variants;
    for (const Org &o : orgs)
        variants.push_back({o.name, [assoc = o.assoc](SimConfig &cfg) {
                                cfg.tlbAssoc = assoc;
                                if (assoc != 0)
                                    cfg.tlbProtectedSlots = 0;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::Ultrix})
        .workloads({"gcc", "vortex"})
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    auto missesPerK = [](const Results &r) {
        return 1000.0 *
               static_cast<double>(r.vmStats().itlbMisses +
                                   r.vmStats().dtlbMisses) /
               static_cast<double>(r.userInstrs());
    };

    for (std::size_t wi = 0; wi < spec.workloadAxis().size(); ++wi) {
        TextTable table;
        std::vector<std::string> header = {"system"};
        for (const Org &o : orgs)
            header.push_back(std::string("misses/1Ki ") + o.name);
        for (const Org &o : orgs)
            header.push_back(std::string("VMCPI ") + o.name);
        table.setHeader(header);

        for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
            std::vector<std::string> misses, vmcpi;
            for (std::size_t vi = 0; vi < variants.size(); ++vi) {
                CellIndex idx{.system = ki, .workload = wi,
                              .variant = vi};
                misses.push_back(
                    TextTable::fmt(res.meanMetric(idx, missesPerK), 2));
                vmcpi.push_back(
                    TextTable::fmt(res.meanMetric(idx, vmcpiOf), 5));
            }
            std::vector<std::string> row = {
                kindName(spec.systemAxis()[ki])};
            row.insert(row.end(), misses.begin(), misses.end());
            row.insert(row.end(), vmcpi.begin(), vmcpi.end());
            table.addRow(row);
        }
        std::cout << spec.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: full associativity is the floor; "
                 "lower associativity adds\nconflict misses that grow "
                 "as the page working set concentrates in few sets\n"
                 "(contiguous regions index adjacent sets, so the "
                 "penalty is usually mild at\n8-way and visible by "
                 "2-way).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
