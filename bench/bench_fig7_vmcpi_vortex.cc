/**
 * @file
 * Figure 7 (paper): VMCPI vs L1 and L2 cache size and linesize —
 * VORTEX. Same sweep as Figure 6 on the database-style workload with
 * poor spatial locality; the paper notes the inverted table (PA-RISC)
 * fits both cache levels better here than the hierarchical tables.
 *
 * Usage: bench_fig7_vmcpi_vortex [--full] [--csv] [--instructions=N]
 */

#include "vmcpi_sweep.hh"

static int
benchMain(int argc, char **argv)
{
    return vmsim::bench::runVmcpiSweep("Figure 7", "vortex", argc, argv);
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
