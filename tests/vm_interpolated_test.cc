/**
 * @file
 * Tests for the interpolated organizations of paper Section 4.2 —
 * HW-INVERTED (PowerPC/PA-7200-style), HW-MIPS, and SPUR — plus BASE.
 * The defining property of each: which costs it *avoids* relative to
 * the software-managed systems.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "os/base_vm.hh"
#include "os/hw_inverted_vm.hh"
#include "os/hw_mips_vm.hh"
#include "os/spur_vm.hh"

namespace vmsim
{
namespace
{

CacheParams l1() { return CacheParams{32_KiB, 32}; }
CacheParams l2() { return CacheParams{1_MiB, 64}; }

// ------------------------------------------------------------------ BASE

TEST(BaseVm, NoVmEventsEver)
{
    MemSystem mem(l1(), l2());
    BaseVm vm(mem);
    for (int i = 0; i < 1000; ++i) {
        vm.instRef(Access{0x00400000 + static_cast<Addr>(i) * 4});
        vm.dataRef(Access{0x10000000 + static_cast<Addr>(i) * 64, 0,
                          i % 3 == 0});
    }
    const VmStats &s = vm.vmStats();
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_EQ(s.uhandlerCalls, 0u);
    EXPECT_EQ(s.hwWalks, 0u);
    EXPECT_EQ(s.pteLoads, 0u);
    EXPECT_EQ(vm.itlb(), nullptr);
    EXPECT_EQ(vm.dtlb(), nullptr);
    // Only user-class traffic exists.
    EXPECT_EQ(mem.stats().dataOf(AccessClass::PteUser).accesses, 0u);
    EXPECT_EQ(mem.stats().instOf(AccessClass::HandlerFetch).accesses, 0u);
    EXPECT_EQ(vm.name(), "BASE");
}

TEST(BaseVm, CachesStillWork)
{
    MemSystem mem(l1(), l2());
    BaseVm vm(mem);
    vm.dataRef(Access{0x10000000, 0, false});
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(mem.stats().dataOf(AccessClass::User).accesses, 2u);
    EXPECT_EQ(mem.stats().dataOf(AccessClass::User).l1Misses, 1u);
}

// ----------------------------------------------------------- HW-INVERTED

TEST(HwInvertedVm, WalksWithoutInterruptOrICache)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwInvertedVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    vm.dataRef(Access{0x10000000, 0, false});
    const VmStats &s = vm.vmStats();
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_EQ(s.uhandlerInstrs, 0u);
    EXPECT_EQ(s.hwWalks, 1u);
    EXPECT_EQ(s.hwWalkCycles, 7u); // depth-1 chain: base cost only
    EXPECT_GE(s.pteLoads, 1u);
    EXPECT_EQ(mem.stats().instOf(AccessClass::HandlerFetch).accesses, 0u);
    EXPECT_EQ(vm.name(), "HW-INVERTED");
}

TEST(HwInvertedVm, ChainDepthAddsCycles)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwInvertedVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    const HashedPageTable &pt = vm.pageTable();
    Vpn a = 0x10000000 >> 12;
    Vpn b = 0;
    for (Vpn v = a + 1; v < (kUserSpan >> 12); ++v) {
        if (pt.hashOf(v) == pt.hashOf(a)) {
            b = v;
            break;
        }
    }
    ASSERT_NE(b, 0u);
    vm.dataRef(Access{a << 12, 0, false});
    EXPECT_EQ(vm.vmStats().hwWalkCycles, 7u);
    vm.dataRef(Access{b << 12, 0, false});
    // Second walk visits 2 chain entries: 7 + (7 + 1).
    EXPECT_EQ(vm.vmStats().hwWalkCycles, 15u);
}

TEST(HwInvertedVm, SharesTableBehaviorWithParisc)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwInvertedVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0},
                    HandlerCosts{}, 12, 1, 2);
    EXPECT_EQ(vm.pageTable().numBuckets(), 4096u);
    vm.dataRef(Access{0x10000000, 0, false});
    // 16-byte PTE traffic on the D side.
    EXPECT_EQ(mem.stats().dataOf(AccessClass::PteUser).accesses, 1u);
}

// --------------------------------------------------------------- HW-MIPS

TEST(HwMipsVm, UnpartitionedTlbAblationWorks)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwMipsVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().hwWalks, 1u);
    Vpn upte_page = vm.pageTable().uptPageVpn(0x10000000 >> 12);
    EXPECT_TRUE(vm.dtlb()->contains(upte_page));
}

TEST(HwMipsVm, ColdWalkUsesNestedRootPath)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwMipsVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.dataRef(Access{0x10000000, 0, false});
    const VmStats &s = vm.vmStats();
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_EQ(s.hwWalks, 1u);
    EXPECT_EQ(s.hwWalkCycles, 7u + HwMipsVm::kNestedWalkCycles);
    EXPECT_EQ(s.pteLoads, 2u);
    EXPECT_EQ(mem.stats().instOf(AccessClass::HandlerFetch).accesses, 0u);
    EXPECT_EQ(vm.name(), "HW-MIPS");
}

TEST(HwMipsVm, WarmUptPageSkipsNesting)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwMipsVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.dataRef(Access{0x10000000, 0, false});
    vm.dataRef(Access{0x10001000, 0, false}); // same UPT page: no root access
    const VmStats &s = vm.vmStats();
    EXPECT_EQ(s.hwWalks, 2u);
    EXPECT_EQ(s.hwWalkCycles, 2 * 7u + HwMipsVm::kNestedWalkCycles);
    EXPECT_EQ(mem.stats().dataOf(AccessClass::PteRoot).accesses, 1u);
}

TEST(HwMipsVm, SameMemoryTrafficAsUltrixWalk)
{
    // The interpolation preserves ULTRIX's table references: virtual
    // UPTE (user class) + physical RPTE (root class).
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    HwMipsVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16});
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(mem.stats().dataOf(AccessClass::PteUser).accesses, 1u);
    EXPECT_EQ(mem.stats().dataOf(AccessClass::PteRoot).accesses, 1u);
}

// ------------------------------------------------------------------ SPUR

TEST(SpurVm, NoTlbNoInterruptNoHandlerCode)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    SpurVm vm(mem, pm);
    EXPECT_EQ(vm.itlb(), nullptr);
    vm.dataRef(Access{0x10000000, 0, false});
    const VmStats &s = vm.vmStats();
    EXPECT_EQ(s.interrupts, 0u);
    EXPECT_EQ(s.uhandlerInstrs, 0u);
    EXPECT_EQ(s.hwWalks, 1u);
    // Cold: the PTE itself missed L2, so the nested root path ran.
    EXPECT_EQ(s.hwWalkCycles, 7u + SpurVm::kNestedWalkCycles);
    EXPECT_EQ(s.pteLoads, 2u);
    EXPECT_EQ(mem.stats().instOf(AccessClass::HandlerFetch).accesses, 0u);
    EXPECT_EQ(vm.name(), "SPUR");
}

TEST(SpurVm, TriggersOnlyOnL2Miss)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    SpurVm vm(mem, pm);
    vm.dataRef(Access{0x10000000, 0, false});
    Counter walks = vm.vmStats().hwWalks;
    vm.dataRef(Access{0x10000000, 0, false}); // L1 hit
    EXPECT_EQ(vm.vmStats().hwWalks, walks);
    // L1 conflict but L2 hit: still no walk.
    vm.dataRef(Access{0x10008000, 0, false});
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().hwWalks, walks + 1); // only the new line
}

TEST(SpurVm, WarmPteSkipsNestedCycles)
{
    MemSystem mem(l1(), l2());
    PhysMem pm(8_MiB, 12);
    SpurVm vm(mem, pm);
    vm.dataRef(Access{0x10000000, 0, false});
    Counter cycles = vm.vmStats().hwWalkCycles;
    // Neighboring page's PTE shares the warm table line: walk is flat.
    vm.dataRef(Access{0x10001000, 0, false});
    EXPECT_EQ(vm.vmStats().hwWalkCycles, cycles + 7);
}

} // anonymous namespace
} // namespace vmsim
