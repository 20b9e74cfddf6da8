/**
 * @file
 * Figure 6 (paper): VMCPI vs L1 and L2 cache size and linesize — GCC.
 *
 * For each of the five VM organizations and each L2 size, prints one
 * table: rows are L1 cache sizes (per side), columns are L1/L2
 * linesize combinations, cells are VMCPI (the cost of walking the
 * page table and refilling the TLB — or, for NOTLB, filling a cache
 * block). Interrupt cost is excluded, exactly as in the paper's
 * Figure 6.
 *
 * Expected shape (paper §4.1): overheads in the 5-10%-of-1-CPI
 * ballpark; ULTRIX ~ MACH; NOTLB far more sensitive to cache size and
 * linesize than the TLB-based schemes; PA-RISC relatively immune to
 * linesize at large L1.
 *
 * Usage: bench_fig6_vmcpi_gcc [--full] [--csv] [--instructions=N]
 */

#include "vmcpi_sweep.hh"

static int
benchMain(int argc, char **argv)
{
    return vmsim::bench::runVmcpiSweep("Figure 6", "gcc", argc, argv);
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
