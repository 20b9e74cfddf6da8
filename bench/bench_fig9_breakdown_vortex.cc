/**
 * @file
 * Figure 9 (paper): VMCPI break-downs — VORTEX, at 64/128-byte L1/L2
 * linesizes. The paper highlights that for vortex the inverted table
 * fits both cache levels better than the hierarchical tables: PA-RISC
 * upte-L2 tapers faster with L1 size and upte-MEM is the lowest of
 * the VM simulations.
 *
 * Usage: bench_fig9_breakdown_vortex [--full] [--csv]
 *        [--instructions=N]
 */

#include "breakdown_sweep.hh"

static int
benchMain(int argc, char **argv)
{
    return vmsim::bench::runBreakdownSweep("Figure 9", "vortex", argc,
                                           argv);
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
