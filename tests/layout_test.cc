/**
 * @file
 * Tests for the hot-path data layouts (DESIGN.md "Hot-path data
 * layout"): static size/alignment guarantees of the structures the
 * replay kernels stream over, the TLB's key->slot SlotIndex under
 * ASID-tagged churn (including the dual-key invalidate regression
 * Tlb::invalidate documents), and scalar-vs-batched equivalence for
 * all nine organizations at cores=4 with mid-batch context switches
 * and shootdowns. SlotIndex's own edge cases live in tlb_index_test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "base/aligned.hh"
#include "base/random.hh"
#include "core/simulator.hh"
#include "obs/event.hh"
#include "obs/interval.hh"
#include "os/vm_system.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"

namespace vmsim
{
namespace
{

// --------------------------------------------- static layout contracts

// The batched kernels copy TraceRecords by the block and re-stage them
// as Access values; both must stay trivially copyable and packed so a
// batch is a flat memcpy-able array, not a pointer graph.
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(sizeof(TraceRecord) == 12, "TraceRecord grew: the "
              "recorded-trace format and batch buffers stream this");
static_assert(std::is_trivially_copyable_v<Access>);
static_assert(sizeof(Access) == 16, "Access is re-staged per record in "
              "the kernels; keep it two words");
static_assert(std::is_trivially_copyable_v<AccessBlock>);
// Records, count, first global instruction and core: four words, built
// once per block and passed by reference.
static_assert(sizeof(AccessBlock) <= 32);

// The SoA TLB arrays and the flat index arrays are probed linearly;
// their element types must stay word-sized scalars.
static_assert(sizeof(Vpn) == 8);
static_assert(kCacheLineBytes == 64);
static_assert(std::is_trivially_copyable_v<TlbParams>);

TEST(Layout, AlignedVecStartsOnACacheLine)
{
    AlignedVec<std::uint64_t> keys(128);
    AlignedVec<std::uint8_t> valid(128);
    AlignedVec<std::uint64_t> stamps(128);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keys.data()) %
                  kCacheLineBytes, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(valid.data()) %
                  kCacheLineBytes, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(stamps.data()) %
                  kCacheLineBytes, 0u);
    // Still a real vector: growth preserves the alignment contract.
    keys.push_back(1);
    keys.resize(4096);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(keys.data()) %
                  kCacheLineBytes, 0u);
}

// --------------------------------------------------- TLB slot-index audit

TlbParams
taggedFaParams()
{
    TlbParams p;
    p.entries = 32;
    p.protectedSlots = 8;
    p.asidBits = 4;
    return p;
}

/**
 * Regression for the dual-key invalidate interaction the comment in
 * Tlb::invalidate pins down: a VPN resident both as an ASID-tagged
 * normal entry and as a global protected entry must lose *both* on
 * invalidate(), and the index must stay consistent even though the
 * first erase may shift the second key's cell back along its probe
 * run.
 */
TEST(TlbFlatIndex, InvalidateDropsAsidAndGlobalEntryTogether)
{
    Tlb tlb(taggedFaParams(), 42);
    tlb.setCurrentAsid(3);
    constexpr Vpn kVpn = 0x1234;
    tlb.insert(kVpn);                 // normal entry, key (3, vpn)
    tlb.insertProtected(kVpn);        // global entry, key (G, vpn)
    EXPECT_EQ(tlb.validEntries(), 2u);
    std::string why;
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;

    tlb.invalidate(kVpn);
    EXPECT_FALSE(tlb.contains(kVpn));
    EXPECT_EQ(tlb.validEntries(), 0u);
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;

    // The global entry alone must also hit (and be dropped) under a
    // different ASID.
    tlb.insertProtected(kVpn);
    tlb.setCurrentAsid(9);
    EXPECT_TRUE(tlb.contains(kVpn));
    tlb.invalidate(kVpn);
    EXPECT_FALSE(tlb.contains(kVpn));
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
}

TEST(TlbFlatIndex, ConsistentUnderTaggedChurn)
{
    // Deterministic churn over every mutation path — insert,
    // insertProtected, invalidate, invalidateAsid, evictRandom, ASID
    // switches, invalidateAll — auditing the index as we go. A small
    // TLB plus a small VPN universe forces evictions, refreshes and
    // backward-shift erases in the index.
    Tlb tlb(taggedFaParams(), 7);
    Random rng(1234);
    std::string why;
    for (unsigned op = 0; op < 4000; ++op) {
        Vpn v = rng.uniform(48);
        switch (rng.uniform(16)) {
          case 0:
            tlb.setCurrentAsid(static_cast<Asid>(rng.uniform(6)));
            break;
          case 1:
            tlb.insertProtected(v);
            break;
          case 2:
            tlb.invalidate(v);
            break;
          case 3:
            tlb.invalidateAsid(static_cast<Asid>(rng.uniform(6)));
            break;
          case 4:
            tlb.evictRandom(1 + static_cast<unsigned>(rng.uniform(4)));
            break;
          case 5:
            if (op % 1024 == 5)
                tlb.invalidateAll();
            break;
          default:
            if (!tlb.lookup(v))
                tlb.insert(v);
            break;
        }
        if (op % 64 == 0) {
            ASSERT_TRUE(tlb.auditIndex(&why)) << "op " << op << ": "
                                              << why;
        }
    }
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
    EXPECT_GT(tlb.hits(), 0u);
    EXPECT_GT(tlb.misses(), 0u);
}

TEST(TlbFlatIndex, UntaggedSmallTlbChurn)
{
    // The fuzz campaign draws tlbEntries in {32, 64}; mirror the
    // smallest here with the paper's untagged random-replacement
    // configuration to pressure fill/evict index turnover.
    TlbParams p;
    p.entries = 32;
    p.protectedSlots = 16;
    Tlb tlb(p, 99);
    Random rng(5678);
    std::string why;
    for (unsigned op = 0; op < 4000; ++op) {
        Vpn v = rng.uniform(200);
        if (!tlb.lookup(v))
            tlb.insert(v);
        if (rng.chance(0.05))
            tlb.invalidate(rng.uniform(200));
        if (op % 128 == 0) {
            ASSERT_TRUE(tlb.auditIndex(&why)) << "op " << op << ": "
                                              << why;
        }
    }
    ASSERT_TRUE(tlb.auditIndex(&why)) << why;
}

// ----------------------- scalar vs batched kernels, multicore + observed

SimConfig
layoutTestConfig(SystemKind kind)
{
    SimConfig cfg;
    cfg.kind = kind;
    cfg.l1 = CacheParams{16_KiB, 32};
    cfg.l2 = CacheParams{1_MiB, 64};
    cfg.seed = 4242;
    cfg.cores = 4;
    // Prime quantum so context switches (and the shootdowns they
    // broadcast) land mid-batch for any power-of-two batch size.
    cfg.ctxSwitchInterval = 997;
    cfg.coreQuantum = 613;
    return cfg;
}

/**
 * The devirtualized per-organization kernels (refBlockKernel /
 * TlbVm::refBlockT) must be observationally identical to the scalar
 * virtual-dispatch loop for every organization — at cores=4, with
 * context switches and shootdowns landing mid-batch, in both the
 * observed (kObs=true) and bare (kObs=false) instantiations.
 */
TEST(LayoutKernels, ScalarVsBatchedAllSystemsMulticore)
{
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Mach, SystemKind::Intel,
          SystemKind::Parisc, SystemKind::Notlb, SystemKind::Base,
          SystemKind::HwInverted, SystemKind::HwMips,
          SystemKind::Spur}) {
        std::string baseline;
        for (std::size_t batch : {std::size_t{1}, std::size_t{256}}) {
            RunHooks hooks;
            hooks.batch = batch;
            Results r = runOnce(layoutTestConfig(kind), "gcc", 12000,
                                2000, hooks);
            std::string dump = r.serialize().dump();
            if (baseline.empty())
                baseline = dump;
            else
                EXPECT_EQ(baseline, dump)
                    << kindName(kind) << " batch " << batch;
        }
    }
}

TEST(LayoutKernels, ObservedMatchesBareKernelCounters)
{
    // Attaching an event sink flips refBlock from the kObs=false to
    // the kObs=true kernel; the counter vector must not move.
    for (SystemKind kind :
         {SystemKind::Ultrix, SystemKind::Parisc, SystemKind::Spur}) {
        RunHooks bare;
        bare.batch = 256;
        Results rb = runOnce(layoutTestConfig(kind), "gcc", 12000,
                             2000, bare);

        CollectingSink sink;
        IntervalSampler sampler(1000);
        RunHooks observed;
        observed.batch = 256;
        observed.sink = &sink;
        observed.sampler = &sampler;
        Results ro = runOnce(layoutTestConfig(kind), "gcc", 12000,
                             2000, observed);

        EXPECT_EQ(rb.serialize().dump(), ro.serialize().dump())
            << kindName(kind);
    }
}

} // anonymous namespace
} // namespace vmsim
