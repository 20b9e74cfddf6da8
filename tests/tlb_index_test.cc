/**
 * @file
 * Tests for the fully-associative TLB's key->slot index
 * (tlb/slot_index.hh) and a differential test of Tlb against a naive
 * linear-scan reference TLB.
 *
 * The index tests replay seeded streams of insertNew/erase/find/clear
 * against std::unordered_map, with keys forced into one home cell and
 * probe runs that wrap past the last cell, where backward-shift
 * deletion is easiest to get wrong. The Tlb test replays seeded
 * streams of every public mutation against RefTlb, which keeps the
 * same slot arrays and draws victims from the same Random seed but
 * finds entries by scanning every slot, over the paper's geometry and
 * the extension geometries the benches sweep.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/random.hh"
#include "tlb/slot_index.hh"
#include "tlb/tlb.hh"

namespace vmsim
{
namespace
{

// ------------------------------------------------------ SlotIndex

/** The first @p n keys (counting up from @p from) whose home is @p h. */
std::vector<std::uint64_t>
keysHomedAt(const SlotIndex &idx, std::size_t h, unsigned n,
            std::uint64_t from = 0)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = from; keys.size() < n; ++k)
        if (idx.home(k) == h)
            keys.push_back(k);
    return keys;
}

/** Keys in cell order, as forEach visits them. */
std::vector<std::uint64_t>
cellOrder(const SlotIndex &idx)
{
    std::vector<std::uint64_t> keys;
    idx.forEach([&](std::uint64_t k, unsigned) { keys.push_back(k); });
    return keys;
}

TEST(SlotIndex, SizedOnceAtQuarterLoad)
{
    EXPECT_EQ(SlotIndex(1).capacity(), 4u);
    EXPECT_EQ(SlotIndex(32).capacity(), 128u);
    EXPECT_EQ(SlotIndex(100).capacity(), 512u);
    EXPECT_EQ(SlotIndex(128).capacity(), 512u);
    EXPECT_EQ(SlotIndex(512).capacity(), 2048u);
    SlotIndex idx(8);
    for (std::size_t k = 0; k < 1000; ++k)
        EXPECT_LT(idx.home(k), idx.capacity());
}

TEST(SlotIndex, ZeroIsAValidKey)
{
    SlotIndex idx(4);
    EXPECT_EQ(idx.find(0), SlotIndex::kNone);
    idx.insertNew(0, 3);
    EXPECT_EQ(idx.find(0), 3u);
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_TRUE(idx.erase(0));
    EXPECT_FALSE(idx.erase(0));
    EXPECT_EQ(idx.find(0), SlotIndex::kNone);
    EXPECT_TRUE(idx.audit());
}

/**
 * A run homed at the last cell wraps to cell 0. Erasing its head must
 * shift every later member back one cell across the wrap, and erasing
 * from the middle must leave the members before the hole in place.
 */
TEST(SlotIndex, BackwardShiftAcrossTheWrap)
{
    SlotIndex idx(8);
    const std::size_t last = idx.capacity() - 1;
    std::vector<std::uint64_t> k = keysHomedAt(idx, last, 5);
    for (unsigned i = 0; i < k.size(); ++i)
        idx.insertNew(k[i], i);
    // Cells 0..3 hold k1..k4; the last cell holds k0.
    EXPECT_EQ(cellOrder(idx),
              (std::vector<std::uint64_t>{k[1], k[2], k[3], k[4], k[0]}));
    std::string why;
    ASSERT_TRUE(idx.audit(&why)) << why;

    ASSERT_TRUE(idx.erase(k[0]));
    EXPECT_EQ(cellOrder(idx),
              (std::vector<std::uint64_t>{k[2], k[3], k[4], k[1]}));
    ASSERT_TRUE(idx.audit(&why)) << why;
    for (unsigned i = 1; i < k.size(); ++i)
        EXPECT_EQ(idx.find(k[i]), i);
    EXPECT_EQ(idx.find(k[0]), SlotIndex::kNone);

    ASSERT_TRUE(idx.erase(k[3]));
    EXPECT_EQ(cellOrder(idx),
              (std::vector<std::uint64_t>{k[2], k[4], k[1]}));
    ASSERT_TRUE(idx.audit(&why)) << why;

    // A key homed at cell 0 queues behind the wrapped run and shifts
    // back with it.
    std::uint64_t z = keysHomedAt(idx, 0, 1)[0];
    idx.insertNew(z, 7);
    EXPECT_EQ(cellOrder(idx),
              (std::vector<std::uint64_t>{k[2], k[4], z, k[1]}));
    ASSERT_TRUE(idx.erase(k[1]));
    EXPECT_EQ(cellOrder(idx),
              (std::vector<std::uint64_t>{k[4], z, k[2]}));
    ASSERT_TRUE(idx.audit(&why)) << why;
    EXPECT_EQ(idx.find(z), 7u);
    EXPECT_EQ(idx.find(k[2]), 2u);
    EXPECT_EQ(idx.find(k[4]), 4u);

    // z reaches its home cell; then erasing the last cell's key must
    // leave z where it is, across the wrap: z's home lies in the
    // (hole, z] range, so moving it back would cut it off.
    ASSERT_TRUE(idx.erase(k[4]));
    EXPECT_EQ(cellOrder(idx), (std::vector<std::uint64_t>{z, k[2]}));
    ASSERT_TRUE(idx.erase(k[2]));
    EXPECT_EQ(cellOrder(idx), (std::vector<std::uint64_t>{z}));
    EXPECT_EQ(idx.find(z), 7u);
    ASSERT_TRUE(idx.audit(&why)) << why;
}

/**
 * Seeded streams against std::unordered_map. Keys come from three
 * pools: keys homed at the last cell (runs that wrap), keys homed at
 * cell 1 (runs the wrapped ones collide with), and a small random
 * universe that includes key 0.
 */
TEST(SlotIndex, MatchesUnorderedMapOverSeededStreams)
{
    for (unsigned maxKeys : {4u, 16u, 32u, 128u}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE("maxKeys " + std::to_string(maxKeys) +
                         " seed " + std::to_string(seed));
            SlotIndex idx(maxKeys);
            std::unordered_map<std::uint64_t, unsigned> ref;
            std::vector<std::uint64_t> pool =
                keysHomedAt(idx, idx.capacity() - 1, maxKeys);
            for (std::uint64_t k : keysHomedAt(idx, 1, maxKeys / 2 + 1))
                pool.push_back(k);
            for (unsigned i = 0; i < 2 * maxKeys; ++i)
                pool.push_back(i * 0x10001ull);
            std::vector<std::uint64_t> erased;
            Random rng(seed);
            std::string why;
            for (unsigned op = 0; op < 6000; ++op) {
                std::uint64_t k = pool[rng.uniform(pool.size())];
                unsigned r = static_cast<unsigned>(rng.uniform(100));
                if (r < 45) {
                    if (ref.count(k) == 0 && ref.size() < maxKeys) {
                        unsigned slot =
                            static_cast<unsigned>(rng.uniform(maxKeys));
                        idx.insertNew(k, slot);
                        ref[k] = slot;
                    }
                } else if (r < 90) {
                    bool had = ref.erase(k) != 0;
                    ASSERT_EQ(idx.erase(k), had) << "op " << op;
                    if (had)
                        erased.push_back(k);
                } else if (r < 99) {
                    auto it = ref.find(k);
                    ASSERT_EQ(idx.find(k), it == ref.end()
                                               ? SlotIndex::kNone
                                               : it->second)
                        << "op " << op;
                } else {
                    idx.clear();
                    for (const auto &[key, slot] : ref)
                        erased.push_back(key);
                    ref.clear();
                }
                ASSERT_EQ(idx.size(), ref.size()) << "op " << op;
                for (const auto &[key, slot] : ref)
                    ASSERT_EQ(idx.find(key), slot)
                        << "op " << op << " key " << key;
                std::size_t tail = erased.size() < 16 ? erased.size() : 16;
                for (std::size_t i = erased.size() - tail;
                     i < erased.size(); ++i) {
                    if (ref.count(erased[i]) == 0) {
                        ASSERT_EQ(idx.find(erased[i]), SlotIndex::kNone)
                            << "op " << op << " erased key " << erased[i];
                    }
                }
                ASSERT_TRUE(idx.audit(&why)) << "op " << op << ": " << why;
            }
        }
    }
}

// ------------------------------------------- Tlb vs a reference TLB

/**
 * Linear-scan model of Tlb's documented semantics: the same slot
 * regions, invalid-slot preference, Random/LRU/FIFO victim choice,
 * dual-key ASID residency rule and bounded evictRandom sampling, with
 * every probe a scan over all slots instead of an index lookup.
 */
class RefTlb
{
  public:
    RefTlb(const TlbParams &p, std::uint64_t seed)
        : p_(p), rng_(seed), keys_(p.entries, 0), valid_(p.entries, 0),
          stamps_(p.entries, 0)
    {
    }

    bool
    lookup(Vpn vpn)
    {
        unsigned s = find(vpn);
        if (s == kAbsent) {
            ++misses_;
            return false;
        }
        ++hits_;
        if (p_.repl == TlbRepl::LRU)
            stamps_[s] = ++stamp_;
        return true;
    }

    void
    insert(Vpn vpn)
    {
        unsigned s = find(vpn);
        if (s != kAbsent) {
            stamps_[s] = ++stamp_;
            return;
        }
        unsigned lo = p_.protectedSlots, hi = p_.entries;
        if (p_.assoc != 0) {
            lo = static_cast<unsigned>(vpn & (p_.entries / p_.assoc - 1)) *
                 p_.assoc;
            hi = lo + p_.assoc;
        }
        fill(key(vpn, tag_), lo, hi);
    }

    void
    insertProtected(Vpn vpn)
    {
        fill(key(vpn, p_.asidBits ? kGlobal : 0), 0, p_.protectedSlots);
    }

    void
    invalidate(Vpn vpn)
    {
        drop(key(vpn, tag_));
        if (p_.asidBits)
            drop(key(vpn, kGlobal));
    }

    void
    invalidateAsid(Asid asid)
    {
        std::uint64_t t = p_.asidBits ? (asid & mask()) : 0;
        for (unsigned s = p_.protectedSlots; s < p_.entries; ++s)
            if (valid_[s] && (keys_[s] >> 48) == t)
                valid_[s] = 0;
    }

    unsigned
    evictRandom(unsigned n)
    {
        unsigned evicted = 0;
        unsigned span = p_.entries - p_.protectedSlots;
        for (unsigned tries = 0; tries < 4 * n && evicted < n; ++tries) {
            unsigned s = p_.protectedSlots +
                         static_cast<unsigned>(rng_.uniform(span));
            if (valid_[s]) {
                valid_[s] = 0;
                ++evicted;
            }
        }
        return evicted;
    }

    void invalidateAll() { valid_.assign(p_.entries, 0); }

    void
    setCurrentAsid(Asid asid)
    {
        tag_ = p_.asidBits ? (asid & mask()) : 0;
    }

    bool contains(Vpn vpn) const { return find(vpn) != kAbsent; }
    bool valid(unsigned s) const { return valid_[s] != 0; }
    std::uint64_t keyAt(unsigned s) const { return keys_[s]; }
    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }

  private:
    static constexpr unsigned kAbsent = ~0u;
    static constexpr std::uint64_t kGlobal = 0xffff;

    static std::uint64_t
    key(Vpn vpn, std::uint64_t asid)
    {
        return (asid << 48) | vpn;
    }

    std::uint64_t mask() const { return (1ull << p_.asidBits) - 1; }

    unsigned
    scan(std::uint64_t k) const
    {
        for (unsigned s = 0; s < p_.entries; ++s)
            if (valid_[s] && keys_[s] == k)
                return s;
        return kAbsent;
    }

    /** The current-ASID entry wins over a global one. */
    unsigned
    find(Vpn vpn) const
    {
        unsigned s = scan(key(vpn, tag_));
        if (s == kAbsent && p_.asidBits)
            s = scan(key(vpn, kGlobal));
        return s;
    }

    void
    fill(std::uint64_t k, unsigned lo, unsigned hi)
    {
        unsigned s = scan(k);
        if (s != kAbsent) {
            stamps_[s] = ++stamp_;
            return;
        }
        unsigned victim = hi;
        for (unsigned i = lo; i < hi && victim == hi; ++i)
            if (!valid_[i])
                victim = i;
        if (victim == hi) {
            if (p_.repl == TlbRepl::Random) {
                victim = lo + static_cast<unsigned>(rng_.uniform(hi - lo));
            } else {
                victim = lo;
                for (unsigned i = lo + 1; i < hi; ++i)
                    if (stamps_[i] < stamps_[victim])
                        victim = i;
            }
        }
        keys_[victim] = k;
        valid_[victim] = 1;
        stamps_[victim] = ++stamp_;
    }

    void
    drop(std::uint64_t k)
    {
        unsigned s = scan(k);
        if (s != kAbsent)
            valid_[s] = 0;
    }

    TlbParams p_;
    Random rng_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint64_t> stamps_;
    std::uint64_t tag_ = 0;
    std::uint64_t stamp_ = 0;
    Counter hits_ = 0;
    Counter misses_ = 0;
};

struct Geometry
{
    const char *name;
    unsigned entries;
    unsigned protectedSlots;
    TlbRepl repl;
    unsigned assoc;
    unsigned asidBits;
};

const Geometry kGeometries[] = {
    {"paper 128/16 random", 128, 16, TlbRepl::Random, 0, 0},
    {"pressure 32/8 random", 32, 8, TlbRepl::Random, 0, 0},
    {"L2 512 unpartitioned", 512, 0, TlbRepl::Random, 0, 0},
    {"128/16 LRU", 128, 16, TlbRepl::LRU, 0, 0},
    {"128/16 FIFO", 128, 16, TlbRepl::FIFO, 0, 0},
    {"128/16 6-bit ASID", 128, 16, TlbRepl::Random, 0, 6},
    {"32/8 6-bit ASID LRU", 32, 8, TlbRepl::LRU, 0, 6},
    {"128 8-way", 128, 0, TlbRepl::Random, 8, 0},
    {"128 8-way 6-bit ASID LRU", 128, 0, TlbRepl::LRU, 8, 6},
};

TEST(TlbDifferential, MatchesLinearScanReference)
{
    for (const Geometry &g : kGeometries) {
        TlbParams p;
        p.entries = g.entries;
        p.protectedSlots = g.protectedSlots;
        p.repl = g.repl;
        p.assoc = g.assoc;
        p.asidBits = g.asidBits;
        for (std::uint64_t seed : {11ull, 12ull}) {
            SCOPED_TRACE(std::string(g.name) + " seed " +
                         std::to_string(seed));
            Tlb tlb(p, seed);
            RefTlb ref(p, seed);
            Random rng(seed * 7919);
            // A VPN universe a few times the TLB's reach keeps both
            // hits and evictions frequent; ASIDs past 2^6 alias under
            // the 6-bit mask.
            const Vpn universe = 3 * g.entries;
            std::string why;
            for (unsigned op = 0; op < 12000; ++op) {
                Vpn v = rng.uniform(universe);
                unsigned r = static_cast<unsigned>(rng.uniform(200));
                bool mutated = true;
                if (r < 120) {
                    bool hit = tlb.lookup(v);
                    ASSERT_EQ(hit, ref.lookup(v)) << "op " << op;
                    if (!hit) {
                        tlb.insert(v);
                        ref.insert(v);
                    }
                } else if (r < 140) {
                    tlb.insert(v);
                    ref.insert(v);
                } else if (r < 155) {
                    if (g.protectedSlots == 0)
                        continue;
                    tlb.insertProtected(v);
                    ref.insertProtected(v);
                } else if (r < 175) {
                    tlb.invalidate(v);
                    ref.invalidate(v);
                } else if (r < 180) {
                    Asid a = static_cast<Asid>(rng.uniform(80));
                    tlb.invalidateAsid(a);
                    ref.invalidateAsid(a);
                } else if (r < 188) {
                    unsigned n = 1 + static_cast<unsigned>(rng.uniform(8));
                    ASSERT_EQ(tlb.evictRandom(n), ref.evictRandom(n))
                        << "op " << op;
                } else if (r < 189) {
                    tlb.invalidateAll();
                    ref.invalidateAll();
                } else if (r < 197) {
                    Asid a = static_cast<Asid>(rng.uniform(80));
                    tlb.setCurrentAsid(a);
                    ref.setCurrentAsid(a);
                    mutated = false;
                } else {
                    ASSERT_EQ(tlb.contains(v), ref.contains(v))
                        << "op " << op;
                    mutated = false;
                }
                if (!mutated)
                    continue;
                for (unsigned s = 0; s < g.entries; ++s) {
                    ASSERT_EQ(tlb.slotValid(s), ref.valid(s))
                        << "op " << op << " slot " << s;
                    if (ref.valid(s)) {
                        ASSERT_EQ(tlb.slotKey(s), ref.keyAt(s))
                            << "op " << op << " slot " << s;
                    }
                }
                ASSERT_TRUE(tlb.auditIndex(&why))
                    << "op " << op << ": " << why;
            }
            EXPECT_EQ(tlb.hits(), ref.hits());
            EXPECT_EQ(tlb.misses(), ref.misses());
            EXPECT_GT(tlb.hits(), 0u);
            EXPECT_GT(tlb.misses(), 0u);
        }
    }
}

} // namespace
} // namespace vmsim
