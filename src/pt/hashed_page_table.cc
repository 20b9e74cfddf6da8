#include "pt/hashed_page_table.hh"

#include "base/bitfield.hh"
#include "base/intmath.hh"

namespace vmsim
{

HashedPageTable::HashedPageTable(PhysMem &phys_mem, unsigned ratio,
                                 unsigned page_bits)
    : PageTableBase(page_bits), physMem_(phys_mem)
{
    fatalIf(ratio == 0, "hashed table ratio must be >= 1");
    std::uint64_t frames = phys_mem.sizeBytes() >> page_bits;
    numBuckets_ = std::uint64_t{1} << ceilLog2(frames * ratio);
    // Main table, then a CRT region sized at one spill slot per frame —
    // ample for any load factor <= 1; overflow is tolerated with a
    // warning (addresses simply continue past the region).
    hptPhysBase_ =
        phys_mem.reserveRegion(numBuckets_ * kHashedPteSize, pageSize());
    crtCapacity_ = frames;
    crtPhysBase_ =
        phys_mem.reserveRegion(crtCapacity_ * kHashedPteSize, pageSize());
    heads_.assign(numBuckets_, kNil);
    tails_.assign(numBuckets_, kNil);
    arena_.reserve(frames);
}

std::uint64_t
HashedPageTable::hashOf(Vpn v) const
{
    // Huck & Hays, literally: "a single XOR of the upper virtual
    // address bits and the lower virtual page number bits". For a
    // 32-bit address with b bucket bits, the upper b address bits are
    // vpn[19 : 20-b] and the lower VPN bits are vpn[b-1 : 0]. The two
    // fields overlap in the middle of the VPN, which is exactly why
    // real tables see collision chains well above the uniform-hash
    // expectation at moderate occupancy (the paper measures ~1.3 for
    // gcc at a 2:1 table).
    unsigned bucket_bits = floorLog2(numBuckets_);
    constexpr unsigned kVaBits = 32;
    unsigned vpn_bits = kVaBits - pageBits_;
    std::uint64_t lower = v & mask(bucket_bits);
    std::uint64_t upper =
        bucket_bits >= vpn_bits ? v : (v >> (vpn_bits - bucket_bits));
    return (lower ^ upper) & (numBuckets_ - 1);
}

unsigned
HashedPageTable::walk(Vpn v, std::vector<Addr> &out)
{
    std::uint64_t bucket = hashOf(v);

    // First touch: allocate the frame and append the entry to the
    // chain tail (main-table slot if the bucket is empty, else a CRT
    // slot). The chain is a link walk through the flat arena.
    bool present = false;
    for (std::uint32_t n = heads_[bucket]; n != kNil; n = arena_[n].next) {
        if (arena_[n].vpn == v) {
            present = true;
            break;
        }
    }
    if (!present) {
        physMem_.frameOf(v);
        Addr entry_addr;
        if (heads_[bucket] == kNil) {
            entry_addr =
                physToCacheAddr(hptPhysBase_ + bucket * kHashedPteSize);
        } else {
            if (crtNext_ >= crtCapacity_ && !crtOverflowWarned_) {
                crtOverflowWarned_ = true;
                warn("collision-resolution table exceeded its reserved ",
                     crtCapacity_, " entries; continuing past it");
            }
            entry_addr = physToCacheAddr(crtPhysBase_ +
                                         crtNext_ * kHashedPteSize);
            ++crtNext_;
        }
        std::uint32_t idx = static_cast<std::uint32_t>(arena_.size());
        arena_.push_back(Node{v, entry_addr, kNil});
        if (heads_[bucket] == kNil)
            heads_[bucket] = idx;
        else
            arena_[tails_[bucket]].next = idx;
        tails_[bucket] = idx;
        ++entryCount_;
    }

    unsigned depth = 0;
    for (std::uint32_t n = heads_[bucket]; n != kNil; n = arena_[n].next) {
        ++depth;
        out.push_back(arena_[n].cacheAddr);
        if (arena_[n].vpn == v)
            break;
    }
    searchDepth_.sample(depth);
    return depth;
}

bool
HashedPageTable::remove(Vpn v)
{
    std::uint64_t bucket = hashOf(v);
    std::uint32_t prev = kNil;
    for (std::uint32_t n = heads_[bucket]; n != kNil;
         prev = n, n = arena_[n].next) {
        if (arena_[n].vpn != v)
            continue;
        if (prev == kNil)
            heads_[bucket] = arena_[n].next;
        else
            arena_[prev].next = arena_[n].next;
        if (tails_[bucket] == n)
            tails_[bucket] = prev;
        arena_[n].next = kNil;
        --entryCount_;
        return true;
    }
    return false;
}

double
HashedPageTable::avgChainLength() const
{
    std::uint64_t nonempty = 0;
    for (std::uint32_t head : heads_)
        if (head != kNil)
            ++nonempty;
    // Every live entry belongs to exactly one chain (remove() detaches
    // arena nodes, so arena_.size() would overcount under a budget).
    return nonempty ? static_cast<double>(entryCount_) /
                          static_cast<double>(nonempty)
                    : 0.0;
}

} // namespace vmsim
