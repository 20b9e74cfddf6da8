/**
 * @file
 * Umbrella header: the whole vmsim public API in one include.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *     #include "vmsim.hh"
 *
 *     vmsim::SimConfig cfg;
 *     cfg.kind = vmsim::SystemKind::Ultrix;
 *     vmsim::Results r = vmsim::runOnce(cfg, "gcc", 1'000'000);
 *     r.printSummary(std::cout);
 */

#ifndef VMSIM_VMSIM_HH
#define VMSIM_VMSIM_HH

#include "base/bitfield.hh"
#include "base/crc.hh"
#include "base/error.hh"
#include "base/fsio.hh"
#include "base/intmath.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "base/random.hh"
#include "base/signals.hh"
#include "base/stats.hh"
#include "base/subprocess.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"
#include "base/types.hh"
#include "base/units.hh"
#include "check/crash_fuzz.hh"
#include "check/diff.hh"
#include "check/invariants.hh"
#include "core/factory.hh"
#include "fault/fault.hh"
#include "core/results.hh"
#include "core/shard.hh"
#include "core/sim_config.hh"
#include "core/simulator.hh"
#include "core/sweep.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "obs/event.hh"
#include "obs/exporters.hh"
#include "obs/interval.hh"
#include "obs/latency.hh"
#include "obs/stats_registry.hh"
#include "obs/telemetry.hh"
#include "os/base_vm.hh"
#include "os/hw_inverted_vm.hh"
#include "os/hw_mips_vm.hh"
#include "os/intel_vm.hh"
#include "os/mach_vm.hh"
#include "os/notlb_vm.hh"
#include "os/org_laws.hh"
#include "os/parisc_vm.hh"
#include "os/spur_vm.hh"
#include "os/ultrix_vm.hh"
#include "os/vm_system.hh"
#include "pt/disjunct_page_table.hh"
#include "pt/hashed_page_table.hh"
#include "pt/intel_page_table.hh"
#include "pt/mach_page_table.hh"
#include "pt/page_table.hh"
#include "pt/ultrix_page_table.hh"
#include "tlb/tlb.hh"
#include "trace/recorded.hh"
#include "trace/trace.hh"
#include "trace/trace_file.hh"
#include "trace/synthetic/components.hh"
#include "trace/synthetic/workloads.hh"

#endif // VMSIM_VMSIM_HH
