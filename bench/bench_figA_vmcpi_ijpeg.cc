/**
 * @file
 * Companion figure (the paper's counterexample benchmark): VMCPI vs
 * cache organization for IJPEG. The paper's space constraints limited
 * its figures to gcc and vortex ("and one that provides interesting
 * counterexamples: ijpeg"); this bench completes the set. Expected
 * shape: VMCPI an order of magnitude below gcc's, with the TLB-based
 * schemes nearly flat across cache organizations (the tiny page
 * working set hits the TLBs) and only NOTLB retaining cache
 * sensitivity.
 *
 * Usage: bench_figA_vmcpi_ijpeg [--full] [--csv] [--instructions=N]
 */

#include "vmcpi_sweep.hh"

static int
benchMain(int argc, char **argv)
{
    return vmsim::bench::runVmcpiSweep("Companion figure", "ijpeg", argc,
                                       argv);
}

int
main(int argc, char **argv)
{
    return vmsim::guardedMain(argc, argv, benchMain);
}
