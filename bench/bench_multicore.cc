/**
 * @file
 * Extension E3: multicore scaling of the paper's MMU organizations.
 *
 * The paper measures a single core, but every one of its refill
 * mechanisms behaves differently once several cores share one page
 * table: software-managed TLBs must shoot down stale entries on every
 * mapping change (IPI + invalidate handler on each remote core), and a
 * second-level TLB can either be shared — one pool, cross-core reuse,
 * but shot down globally — or sliced per core. This bench sweeps the
 * core count (variant axis) in both L2 TLB modes for the TLB-based
 * organizations and reports total CPI plus the shootdown component.
 *
 * The interesting contrast: shootdown cost grows with the core count
 * (every context switch broadcasts to all peers), so organizations
 * with cheap refills keep their advantage while the fixed IPI cost
 * becomes the dominant multicore overhead.
 *
 * Usage: bench_multicore [--csv] [--instructions=N] [--jobs=N]
 *                        [--seeds=N] [--core-quantum=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);

    struct Point
    {
        const char *label;
        unsigned cores;
        bool shared;
    };
    const Point points[] = {
        {"1", 1, true},           {"2/shared", 2, true},
        {"2/private", 2, false},  {"4/shared", 4, true},
        {"4/private", 4, false},
    };

    banner("Multicore sweep: total CPI vs cores (shared vs private "
           "L2 TLB)");
    std::cout << "caches: 64KB/1MB, 64/128B lines; 128-entry L1 TLBs; "
                 "1024-entry L2 TLB;\ncontext switch every 50K "
                 "instructions; shootdown = 100-cycle IPI + 50-cycle "
                 "handler\n\n";

    std::vector<ConfigVariant> variants;
    for (const Point &p : points)
        variants.push_back({p.label, [p, &opts](SimConfig &cfg) {
                                cfg.cores = p.cores;
                                cfg.sharedL2Tlb = p.shared;
                                cfg.l2TlbEntries = 1024;
                                cfg.ctxSwitchInterval = 50'000;
                                if (opts.coreQuantum)
                                    cfg.coreQuantum = opts.coreQuantum;
                            }});

    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc})
        .workloads({"gcc"})
        .variants(variants);
    SweepResults res = runSweep(opts, spec);

    TextTable total;
    std::vector<std::string> header = {"system"};
    for (const Point &p : points)
        header.push_back(p.label);
    total.setHeader(header);
    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        std::vector<std::string> row = {kindName(spec.systemAxis()[ki])};
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            double v = res.meanMetric(
                {.system = ki, .variant = vi},
                [](const Results &r) { return r.totalCpi(); });
            row.push_back(TextTable::fmt(v, 5));
        }
        total.addRow(row);
    }
    std::cout << "total CPI (" << opts.instructions
              << " instructions)\n";
    emit(total, opts);

    TextTable sd;
    sd.setHeader(header);
    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        std::vector<std::string> row = {kindName(spec.systemAxis()[ki])};
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            double v = res.meanMetric(
                {.system = ki, .variant = vi},
                [](const Results &r) { return r.shootdownCpi(); });
            row.push_back(TextTable::fmt(v, 5));
        }
        sd.addRow(row);
    }
    std::cout << "shootdown CPI component\n";
    emit(sd, opts);

    std::cout << "Expected shape: the single-core column reproduces the "
                 "paper's numbers\nexactly; the shootdown component "
                 "grows with the core count (each context\nswitch "
                 "notifies every peer) and is identical between the "
                 "shared and\nprivate L2 TLB modes, which differ only "
                 "in refill locality.\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
