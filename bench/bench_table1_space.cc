/**
 * @file
 * Table 1 (paper): the simulated parameter space. Enumerates the
 * cross-product of Table 1 — cache sizes, linesizes, TLB geometry,
 * systems — as one SweepSpec grid, runs a short burst through every
 * cell to prove the whole space is constructible and simulable, and
 * prints the space plus a per-system smoke summary.
 *
 * Usage: bench_table1_space [--full] [--csv] [--instructions=N]
 *        [--jobs=N]
 */

#include "bench_common.hh"

static int
benchMain(int argc, char **argv)
{
    using namespace vmsim;
    using namespace vmsim::bench;

    BenchOptions opts = BenchOptions::parse(argc, argv);
    // This bench only smoke-tests each point.
    Counter instrs = std::min<Counter>(opts.instructions, 20000);

    banner("Table 1: simulation details (parameter space)");

    TextTable space;
    space.setHeader({"Characteristic", "Range of values simulated"});
    space.addRow({"Benchmarks",
                  "gcc-like, vortex-like, ijpeg-like (SPEC'95 integer "
                  "stand-ins)"});
    space.addRow({"Cache organizations",
                  "split, direct-mapped, virtually-addressed, blocking, "
                  "write-allocate, write-through"});
    space.addRow({"L1 cache size",
                  "1, 2, 4, 8, 16, 32, 64, 128KB (per side)"});
    space.addRow({"L2 cache size", "1MB, 2MB, 4MB (per side)"});
    space.addRow({"Cache linesizes", "16, 32, 64, 128 bytes"});
    space.addRow({"TLB organizations",
                  "fully associative, random replacement; ULTRIX/MACH "
                  "reserve 16 protected slots"});
    space.addRow({"TLB size", "128-entry I-TLB / 128-entry D-TLB"});
    space.addRow({"Page size", "4 KB"});
    space.addRow({"Cost of interrupt", "10, 50, 200 cycles"});
    space.addRow({"Systems",
                  "ULTRIX, MACH, INTEL, PA-RISC, NOTLB, BASE (+ "
                  "HW-INVERTED, HW-MIPS, SPUR interpolations)"});
    emit(space, opts);

    // Instantiate and smoke-run the whole cross-product as one grid.
    SweepSpec spec = paperSweep(opts);
    spec.systems({SystemKind::Ultrix, SystemKind::Mach,
                  SystemKind::Intel, SystemKind::Parisc,
                  SystemKind::Notlb, SystemKind::Base,
                  SystemKind::HwInverted, SystemKind::HwMips,
                  SystemKind::Spur})
        .workloads({"gcc"})
        .l1Sizes(paperL1Sizes(opts.full))
        .l2Sizes(paperL2Sizes(opts.full))
        .lineSizes(paperLineSizes(opts.full))
        .instructions(instrs)
        .warmup(instrs / 4);
    SweepResults res = runSweep(opts, spec);

    std::size_t per_system = spec.l1Axis().size() *
                             spec.l2Axis().size() *
                             spec.lineAxis().size();

    TextTable summary;
    summary.setHeader({"system", "points", "min CPI", "max CPI"});
    for (std::size_t ki = 0; ki < spec.systemAxis().size(); ++ki) {
        double min_cpi = 1e30, max_cpi = 0;
        for (std::size_t l1 = 0; l1 < spec.l1Axis().size(); ++l1) {
            for (std::size_t l2 = 0; l2 < spec.l2Axis().size(); ++l2) {
                for (std::size_t li = 0; li < spec.lineAxis().size();
                     ++li) {
                    double cpi = res.meanMetric(
                        {.system = ki, .l1 = l1, .l2 = l2, .line = li},
                        [](const Results &r) { return r.totalCpi(); });
                    min_cpi = std::min(min_cpi, cpi);
                    max_cpi = std::max(max_cpi, cpi);
                }
            }
        }
        summary.addRow({kindName(spec.systemAxis()[ki]),
                        std::to_string(per_system),
                        TextTable::fmt(min_cpi, 3),
                        TextTable::fmt(max_cpi, 3)});
    }
    std::cout << "Cross-product smoke run ("
              << spec.systemAxis().size() * per_system
              << " configurations x " << instrs << " instructions):\n";
    emit(summary, opts);
    return 0;
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
