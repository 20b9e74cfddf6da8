/**
 * @file
 * Figure 8 (paper): VMCPI break-downs — GCC, at the best-performing
 * 64/128-byte L1/L2 linesizes, stacked by the Table-3 components, for
 * L1 sizes 1..128 KB and L2 sizes 1/2/4 MB.
 *
 * Expected shape (paper §4.2): uhandler dominates as caches grow; the
 * INTEL rows show rpte components (top-down walk touches the root on
 * every miss) while the bottom-up schemes' root traffic vanishes;
 * MACH's rpte-MEM carries the "administrative" cost; PA-RISC's
 * upte-L2 stays flat across L1 sizes for gcc (16-byte PTEs).
 *
 * Usage: bench_fig8_breakdown_gcc [--full] [--csv] [--instructions=N]
 */

#include "breakdown_sweep.hh"

static int
benchMain(int argc, char **argv)
{
    return vmsim::bench::runBreakdownSweep("Figure 8", "gcc", argc,
                                           argv);
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
