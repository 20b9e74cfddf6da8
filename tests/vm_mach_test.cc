/**
 * @file
 * Tests for MachVm: the three-level nested refill (paper Table 4:
 * 10 / 20 / 500-instruction handlers, 10 administrative loads on the
 * root path), protected-slot usage for kernel mappings, and the decay
 * of nesting depth as intermediate mappings become resident.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/mem_system.hh"
#include "mem/phys_mem.hh"
#include "os/mach_vm.hh"

namespace vmsim
{
namespace
{

struct Fixture
{
    Fixture()
        : mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64}),
          pm(8_MiB, 12),
          vm(mem, pm, TlbParams{128, 16, TlbRepl::Random},
             TlbParams{128, 16, TlbRepl::Random})
    {}

    MemSystem mem;
    PhysMem pm;
    MachVm vm;
};

TEST(MachVm, DefaultCostsMatchTable4)
{
    HandlerCosts c = MachVm::machDefaultCosts();
    EXPECT_EQ(c.userInstrs, 10u);
    EXPECT_EQ(c.kernelInstrs, 20u);
    EXPECT_EQ(c.rootInstrs, 500u);
    EXPECT_EQ(c.adminLoads, 10u);
}

TEST(MachVm, UnpartitionedTlbAblationWorks)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    MachVm vm(mem, pm, TlbParams{128, 0}, TlbParams{128, 0});
    vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_EQ(vm.vmStats().rhandlerCalls, 1u);
    Vpn upte_page = vm.pageTable().uptPageVpn(0x10000000 >> 12);
    EXPECT_TRUE(vm.dtlb()->contains(upte_page));
}

TEST(MachVm, ColdMissNestsThreeDeep)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 1u);
    EXPECT_EQ(s.khandlerCalls, 1u);
    EXPECT_EQ(s.rhandlerCalls, 1u);
    EXPECT_EQ(s.uhandlerInstrs, 10u);
    EXPECT_EQ(s.khandlerInstrs, 20u);
    EXPECT_EQ(s.rhandlerInstrs, 500u);
    EXPECT_EQ(s.interrupts, 3u);
    EXPECT_EQ(s.pteLoads, 3u);
    // Root path: 10 admin loads + 1 RPTE load, all charged root-level.
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteRoot).accesses, 11u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteKernel).accesses, 1u);
    EXPECT_EQ(f.mem.stats().dataOf(AccessClass::PteUser).accesses, 1u);
}

TEST(MachVm, SecondMissSameUptPageIsShallow)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    f.vm.dataRef(Access{0x10001000, 0, false}); // same UPT page
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 2u);
    EXPECT_EQ(s.khandlerCalls, 1u);
    EXPECT_EQ(s.rhandlerCalls, 1u);
    EXPECT_EQ(s.interrupts, 4u);
}

TEST(MachVm, DistantUptPageNestsToKernelOnly)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    // A user page 8 MB away uses a different UPT page but (almost
    // certainly) the same KPT page, since one KPT page maps 4 MB of
    // kernel space = 2^10 UPT pages.
    f.vm.dataRef(Access{0x10800000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_EQ(s.uhandlerCalls, 2u);
    EXPECT_EQ(s.khandlerCalls, 2u);
    EXPECT_EQ(s.rhandlerCalls, 1u); // root not re-run
    EXPECT_EQ(s.interrupts, 5u);
}

TEST(MachVm, KernelMappingsGoToProtectedSlots)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    Vpn upte_page = f.vm.pageTable().uptPageVpn(0x10000000 >> 12);
    Vpn kpte_page = f.vm.pageTable().kptPageVpn(upte_page);
    ASSERT_TRUE(f.vm.dtlb()->contains(upte_page));
    ASSERT_TRUE(f.vm.dtlb()->contains(kpte_page));
    // Flood normal slots within the already-mapped 4 MB segment.
    for (int i = 1; i < 300; ++i)
        f.vm.dataRef(Access{0x10000000 + static_cast<std::uint64_t>(i) * 4096, 0, false});
    EXPECT_TRUE(f.vm.dtlb()->contains(kpte_page));
}

TEST(MachVm, RootPathIsExpensive)
{
    // The distinguishing feature of the MACH simulation: the root
    // path costs an order of magnitude more than the others.
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    const VmStats &s = f.vm.vmStats();
    EXPECT_GT(s.rhandlerInstrs, 10 * (s.uhandlerInstrs +
                                      s.khandlerInstrs));
}

TEST(MachVm, PidSeparatesUptPlacement)
{
    MemSystem mem(CacheParams{32_KiB, 32}, CacheParams{1_MiB, 64});
    PhysMem pm(8_MiB, 12);
    MachVm vm(mem, pm, TlbParams{128, 16}, TlbParams{128, 16},
              MachVm::machDefaultCosts(), 12, 1);
    EXPECT_EQ(vm.pageTable().pid(), 1u);
    EXPECT_EQ(vm.pageTable().uptBase(), kMachUptRegion + 2_MiB);
}

TEST(MachVm, TlbHitIsFree)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    VmStats before = f.vm.vmStats();
    for (int i = 0; i < 10; ++i)
        f.vm.dataRef(
            Access{0x10000000 + static_cast<Addr>(i) * 8, 0, false});
    EXPECT_EQ(f.vm.vmStats().interrupts, before.interrupts);
}

TEST(MachVm, HandlerBasesAreDistinctPages)
{
    Fixture f;
    f.vm.dataRef(Access{0x10000000, 0, false});
    EXPECT_TRUE(f.mem.l1i().probe(kUserHandlerBase));
    EXPECT_TRUE(f.mem.l1i().probe(kKernelHandlerBase));
    EXPECT_TRUE(f.mem.l1i().probe(kRootHandlerBase));
}

TEST(MachVm, Name)
{
    Fixture f;
    EXPECT_EQ(f.vm.name(), "MACH");
}

} // anonymous namespace
} // namespace vmsim
