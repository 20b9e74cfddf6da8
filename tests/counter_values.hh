/**
 * @file
 * A VmStats whose every counter, aggregate and per-core, holds a
 * distinct value, set member by member. Shared by the tests that loop
 * over kVmStatsFields / kCoreStatsFields (serialization, diffResults,
 * interval deltas): a table entry that points at the wrong member
 * shows up as a value under the wrong key.
 */

#ifndef VMSIM_TESTS_COUNTER_VALUES_HH
#define VMSIM_TESTS_COUNTER_VALUES_HH

#include "os/vm_system.hh"

namespace vmsim
{

/**
 * Aggregate counters 1001..1023 in declaration order; two cores whose
 * slices sum to the six aggregates they slice, with all fourteen
 * per-core values distinct from each other and from the aggregates.
 */
inline VmStats
distinctVmStats()
{
    VmStats vm;
    vm.uhandlerCalls = 1001;
    vm.khandlerCalls = 1002;
    vm.rhandlerCalls = 1003;
    vm.uhandlerInstrs = 1004;
    vm.khandlerInstrs = 1005;
    vm.rhandlerInstrs = 1006;
    vm.hwWalks = 1007;
    vm.hwWalkCycles = 1008;
    vm.interrupts = 1009;
    vm.pteLoads = 1010;
    vm.ctxSwitches = 1011;
    vm.l2TlbHits = 1012;
    vm.itlbMisses = 1013;
    vm.dtlbMisses = 1014;
    vm.shootdownsSent = 1015;
    vm.shootdownsRecv = 1016;
    vm.shootdownCycles = 1017;
    vm.pagesTouched = 1018;
    vm.majorFaults = 1019;
    vm.reusedFrames = 1020;
    vm.evictions = 1021;
    vm.writebacks = 1022;
    vm.faultCycles = 1023;

    CoreStats c0;
    c0.instrs = 5001;
    c0.itlbMisses = 301;
    c0.dtlbMisses = 402;
    c0.ctxSwitches = 503;
    c0.shootdownsSent = 604;
    c0.shootdownsRecv = 705;
    c0.majorFaults = 806;
    CoreStats c1;
    c1.instrs = 5002;
    c1.itlbMisses = vm.itlbMisses - c0.itlbMisses;             // 712
    c1.dtlbMisses = vm.dtlbMisses - c0.dtlbMisses;             // 612
    c1.ctxSwitches = vm.ctxSwitches - c0.ctxSwitches;          // 508
    c1.shootdownsSent = vm.shootdownsSent - c0.shootdownsSent; // 411
    c1.shootdownsRecv = vm.shootdownsRecv - c0.shootdownsRecv; // 311
    c1.majorFaults = vm.majorFaults - c0.majorFaults;          // 213
    vm.perCore = {c0, c1};
    return vm;
}

} // namespace vmsim

#endif // VMSIM_TESTS_COUNTER_VALUES_HH
