/**
 * @file
 * Tests for PhysMem: region reservation, first-touch frame allocation,
 * determinism, overcommit behavior, and the vpn->frame index's growth.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "base/logging.hh"
#include "base/units.hh"
#include "mem/phys_mem.hh"

namespace vmsim
{
namespace
{

TEST(PhysMem, BasicGeometry)
{
    PhysMem pm(8_MiB, 12);
    EXPECT_EQ(pm.pageSize(), 4096u);
    EXPECT_EQ(pm.numFrames(), 2048u);
    EXPECT_EQ(pm.framesUsed(), 0u);
    EXPECT_FALSE(pm.overcommitted());
}

TEST(PhysMem, InvalidConstruction)
{
    setQuiet(true);
    EXPECT_THROW(PhysMem(0, 12), FatalError);
    EXPECT_THROW(PhysMem(3_MiB, 12), FatalError); // not a power of two
    EXPECT_THROW(PhysMem(8_MiB, 40), FatalError); // silly page size
    EXPECT_THROW(PhysMem(1_KiB, 12), FatalError); // smaller than a page
    setQuiet(false);
}

TEST(PhysMem, FirstTouchIsDeterministic)
{
    PhysMem pm(8_MiB, 12);
    Pfn f1 = pm.frameOf(100);
    Pfn f2 = pm.frameOf(200);
    EXPECT_NE(f1, f2);
    EXPECT_EQ(pm.frameOf(100), f1);
    EXPECT_EQ(pm.frameOf(200), f2);
    EXPECT_EQ(pm.framesUsed(), 2u);
}

TEST(PhysMem, IsMapped)
{
    PhysMem pm(8_MiB, 12);
    EXPECT_FALSE(pm.isMapped(5));
    pm.frameOf(5);
    EXPECT_TRUE(pm.isMapped(5));
    EXPECT_FALSE(pm.isMapped(6));
}

TEST(PhysMem, FrameAddr)
{
    PhysMem pm(8_MiB, 12);
    Pfn f = pm.frameOf(7);
    EXPECT_EQ(pm.frameAddrOf(7), f << 12);
}

TEST(PhysMem, ReserveRegionsAreDisjointAndAligned)
{
    PhysMem pm(8_MiB, 12);
    Addr a = pm.reserveRegion(2_KiB, 4096);
    Addr b = pm.reserveRegion(64_KiB, 4096);
    Addr c = pm.reserveRegion(100, 64);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_EQ(c % 64, 0u);
    EXPECT_GE(b, a + 2_KiB);
    EXPECT_GE(c, b + 64_KiB);
}

TEST(PhysMem, FramesStartAfterReservations)
{
    PhysMem pm(8_MiB, 12);
    pm.reserveRegion(64_KiB, 4096);
    Pfn first = pm.frameOf(0);
    // Frame 0..15 hold the reserved region.
    EXPECT_GE(first, 16u);
    // The reservation shrank the pool.
    EXPECT_EQ(pm.numFrames(), 2048u - 16u);
}

TEST(PhysMem, ReserveAfterAllocationPanics)
{
    setQuiet(true);
    PhysMem pm(8_MiB, 12);
    pm.frameOf(1);
    EXPECT_THROW(pm.reserveRegion(4096, 4096), PanicError);
    setQuiet(false);
}

TEST(PhysMem, EmptyReservationRejected)
{
    setQuiet(true);
    PhysMem pm(8_MiB, 12);
    EXPECT_THROW(pm.reserveRegion(0, 4096), FatalError);
    setQuiet(false);
}

TEST(PhysMem, OvercommitWarnsButContinues)
{
    setQuiet(true);
    PhysMem pm(1_MiB, 12); // 256 frames
    for (Vpn v = 0; v < 300; ++v)
        pm.frameOf(v);
    EXPECT_TRUE(pm.overcommitted());
    EXPECT_EQ(pm.framesUsed(), 300u);
    // Mappings stay stable even past capacity.
    EXPECT_EQ(pm.frameOf(299), pm.frameOf(299));
    setQuiet(false);
}

TEST(PhysMem, DistinctVpnsGetDistinctFrames)
{
    PhysMem pm(8_MiB, 12);
    std::set<Pfn> frames;
    for (Vpn v = 1000; v < 1100; ++v)
        frames.insert(pm.frameOf(v));
    EXPECT_EQ(frames.size(), 100u);
}

TEST(PhysMem, IndexGrowthKeepsEveryMapping)
{
    // The vpn->frame index starts at one key and doubles when a miss
    // finds it full: 5,000 pages cross every doubling up to 8,192.
    // After each doubling every earlier page must keep its frame.
    PhysMem pm(64_MiB, 12);
    std::map<Vpn, Pfn> model;
    std::set<Pfn> frames;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        // Scattered VPNs (key 0 included) so probe runs collide.
        Vpn v = (i * 0x9E3779B1u) & 0xFFFFF;
        Pfn f = pm.frameOf(v);
        ASSERT_TRUE(model.emplace(v, f).second) << "vpn " << v;
        ASSERT_TRUE(frames.insert(f).second) << "frame " << f << " shared";
        ASSERT_EQ(pm.framesUsed(), model.size());
        if ((i & (i - 1)) == 0) // just grew past i keys
            for (const auto &[u, g] : model) {
                ASSERT_TRUE(pm.isMapped(u)) << "vpn " << u << " at " << i;
                ASSERT_EQ(pm.frameAddrOf(u), g << 12) << "vpn " << u;
            }
    }
    for (const auto &[v, f] : model)
        EXPECT_EQ(pm.frameOf(v), f) << "vpn " << v;
    EXPECT_EQ(pm.framesUsed(), 5000u);
    for (Vpn v = 0x100000; v < 0x100100; ++v)
        EXPECT_FALSE(pm.isMapped(v));
    EXPECT_FALSE(pm.overcommitted());
}

} // anonymous namespace
} // namespace vmsim
