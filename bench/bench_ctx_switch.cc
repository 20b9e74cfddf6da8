/**
 * @file
 * Extension E1: context-switch (multiprogramming) pressure.
 *
 * The paper's machines carry no ASIDs, so every address-space switch
 * costs a full TLB flush and re-walk. This bench sweeps the scheduling
 * quantum and reports VM overhead (VMCPI + interrupt CPI @50) per
 * organization. Two results the paper's framework predicts:
 *
 *  - hardware-walked TLBs (INTEL, HW-*) refill flushed TLBs far more
 *    cheaply than software-managed ones (no interrupt storm per
 *    refill burst);
 *  - the global-virtual-space designs (NOTLB, SPUR) keep no
 *    per-process translation state at all and are immune — the
 *    selling point of single-global-address-space systems.
 *
 * Two SweepSpecs (untagged and ASID-tagged TLBs — the tagged one only
 * covers TLB-based organizations) share a quantum variant axis.
 *
 * Usage: bench_ctx_switch [--csv] [--instructions=N] [--jobs=N]
 *        [--seeds=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    const Counter quanta[] = {0, 1'000'000, 250'000, 50'000, 10'000};
    const std::vector<SystemKind> kinds = {
        SystemKind::Ultrix, SystemKind::Mach,       SystemKind::Intel,
        SystemKind::Parisc, SystemKind::HwInverted, SystemKind::HwMips,
        SystemKind::Notlb,  SystemKind::Spur,
    };

    banner("Context-switch pressure: VM overhead (VMCPI + intCPI@50) "
           "vs scheduling quantum");
    std::cout << "caches: 64KB/1MB, 64/128B lines; TLBs flushed per "
                 "switch (no ASIDs)\n\n";

    // Untagged (paper) TLBs: flush per switch. The ASID-tagged spec
    // instead costs each switch 16 randomly-evicted entries per side
    // (competitor pressure); tagging changes nothing for the TLB-less
    // organizations, so that spec drops them.
    auto quantumVariants = [&](bool asid) {
        std::vector<ConfigVariant> vs;
        for (Counter q : quanta)
            vs.push_back({q ? std::to_string(q) : "no switch",
                          [q, asid](SimConfig &cfg) {
                              cfg.ctxSwitchInterval = q;
                              if (asid)
                                  cfg.tlbAsidBits = 6;
                          }});
        return vs;
    };

    std::vector<SystemKind> tlb_kinds;
    for (SystemKind kind : kinds)
        if (kindHasTlb(kind))
            tlb_kinds.push_back(kind);

    SweepSpec untagged = paperSweep(opts);
    untagged.systems(kinds)
        .workloads({"gcc", "vortex"})
        .variants(quantumVariants(false));
    SweepSpec tagged = paperSweep(opts);
    tagged.systems(tlb_kinds)
        .workloads({"gcc", "vortex"})
        .variants(quantumVariants(true));

    SweepRunner runner = makeRunner(opts);
    SweepResults res_untagged = runner.run(untagged);
    SweepResults res_tagged = runner.run(tagged);

    auto overhead = [](const Results &r) {
        return r.vmcpi() + r.interruptCpi();
    };

    for (std::size_t wi = 0; wi < untagged.workloadAxis().size();
         ++wi) {
        TextTable table;
        table.setHeader({"system", "no switch", "1M", "250K", "50K",
                         "10K"});
        for (bool asid : {false, true}) {
            const SweepSpec &spec = asid ? tagged : untagged;
            const SweepResults &res = asid ? res_tagged : res_untagged;
            for (std::size_t ki = 0; ki < spec.systemAxis().size();
                 ++ki) {
                std::vector<std::string> row = {
                    std::string(kindName(spec.systemAxis()[ki])) +
                    (asid ? " +ASID" : "")};
                for (std::size_t vi = 0;
                     vi < spec.variantAxis().size(); ++vi) {
                    double v = res.meanMetric({.system = ki,
                                               .workload = wi,
                                               .variant = vi},
                                              overhead);
                    row.push_back(TextTable::fmt(v, 5));
                }
                table.addRow(row);
            }
        }
        std::cout << untagged.workloadAxis()[wi] << " ("
                  << opts.instructions << " instructions)\n";
        emit(table, opts);
    }

    std::cout << "Expected shape: software-managed TLBs degrade "
                 "steeply as the quantum\nshrinks; hardware-walked "
                 "TLBs degrade gently; NOTLB and SPUR rows are flat\n"
                 "(no per-process translation state); the +ASID rows "
                 "flatten most of the\ndegradation (switches cost "
                 "partial eviction, not a flush).\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
