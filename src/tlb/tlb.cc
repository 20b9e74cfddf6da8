#include "tlb/tlb.hh"

#include <bit>
#include <sstream>

#include "base/bitfield.hh"
#include "base/intmath.hh"
#include "base/logging.hh"
#include "base/stats.hh"

namespace vmsim
{

std::string
TlbParams::toString() const
{
    std::ostringstream oss;
    oss << entries << "-entry";
    if (!fullyAssociative())
        oss << " " << assoc << "-way";
    if (protectedSlots)
        oss << " (" << protectedSlots << " protected)";
    if (tagged())
        oss << " " << asidBits << "b-ASID";
    switch (repl) {
      case TlbRepl::Random: oss << " random"; break;
      case TlbRepl::LRU:    oss << " LRU";    break;
      case TlbRepl::FIFO:   oss << " FIFO";   break;
    }
    return oss.str();
}

Tlb::Tlb(const TlbParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    fatalIf(params_.entries == 0, "TLB must have at least one entry");
    fatalIf(params_.protectedSlots >= params_.entries,
            "protected slots (", params_.protectedSlots,
            ") must leave room for normal entries (total ",
            params_.entries, ")");
    fatalIf(params_.asidBits > 15, "at most 15 ASID bits supported");
    if (!params_.fullyAssociative()) {
        fatalIf(params_.protectedSlots != 0,
                "protected slots require a fully-associative TLB");
        fatalIf(params_.entries % params_.assoc != 0,
                "TLB entries not divisible by associativity");
        numSets_ = params_.entries / params_.assoc;
        fatalIf(!isPowerOf2(numSets_),
                "set-associative TLB needs a power-of-two set count");
    }
    asidMask_ = mask(params_.asidBits);
    curTag_ = 0;
    keys_.assign(params_.entries, 0);
    valid_.assign(divCeil(params_.entries, 64u), 0);
    stamps_.assign(params_.entries, 0);
    if (params_.fullyAssociative())
        index_ = SlotIndex(params_.entries);
}

unsigned
Tlb::firstInvalid(unsigned lo, unsigned hi) const
{
    // Invalid slots are the clear bits; mask off those below lo in the
    // first word. The last word's tail past `entries` reads as free
    // but lands at or beyond hi, which means "none".
    unsigned w = lo >> 6;
    std::uint64_t free = ~valid_[w] & (~std::uint64_t{0} << (lo & 63));
    while (free == 0) {
        if (++w << 6 >= hi)
            return hi;
        free = ~valid_[w];
    }
    unsigned s = (w << 6) + static_cast<unsigned>(std::countr_zero(free));
    return s < hi ? s : hi;
}

void
Tlb::insertInRegion(std::uint64_t key, unsigned lo, unsigned hi)
{
    // Prefer the lowest invalid slot in the region.
    unsigned victim = firstInvalid(lo, hi);
    if (victim == hi) {
        switch (params_.repl) {
          case TlbRepl::Random:
            victim = lo + static_cast<unsigned>(rng_.uniform(hi - lo));
            break;
          case TlbRepl::LRU:
          case TlbRepl::FIFO:
            victim = lo;
            for (unsigned s = lo + 1; s < hi; ++s)
                if (stamps_[s] < stamps_[victim])
                    victim = s;
            break;
        }
        noteEvict(victim);
        if (params_.fullyAssociative())
            index_.erase(keys_[victim]);
    }
    keys_[victim] = key;
    setValid(victim);
    stamps_[victim] = ++stamp_;
    noteFill(victim);
    if (params_.fullyAssociative())
        index_.insertNew(key, victim);
}

void
Tlb::insert(Vpn vpn)
{
    // Residency check with lookup()'s dual-key rule: re-inserting a
    // VPN that already hits as a global/protected entry must refresh
    // that entry, not create a duplicate under the current ASID. A
    // miss here proves the fill's key absent, so the fill probes
    // nothing again.
    unsigned resident = findSlot(vpn);
    if (resident != kNoSlot) {
        stamps_[resident] = ++stamp_;
        return;
    }
    std::uint64_t key = keyOf(vpn, tagAsid());
    if (params_.fullyAssociative()) {
        insertInRegion(key, params_.protectedSlots, params_.entries);
    } else {
        unsigned lo, hi;
        setRange(vpn, lo, hi);
        insertInRegion(key, lo, hi);
    }
}

void
Tlb::insertProtected(Vpn vpn)
{
    panicIf(params_.protectedSlots == 0,
            "insertProtected on an unpartitioned TLB");
    // Protected mappings are global: they hit under any ASID. A key
    // already resident (in either region) is refreshed in place.
    std::uint64_t key = keyOf(vpn, params_.tagged() ? kGlobalAsid : 0);
    unsigned resident = index_.find(key);
    if (resident != kNoSlot) {
        stamps_[resident] = ++stamp_;
        return;
    }
    insertInRegion(key, 0, params_.protectedSlots);
}

void
Tlb::invalidateAll()
{
    if (lifeHist_)
        for (unsigned s = 0; s < params_.entries; ++s)
            noteEvict(s);
    std::fill(valid_.begin(), valid_.end(), std::uint64_t{0});
    index_.clear();
}

void
Tlb::eraseResident(Vpn vpn)
{
    // Mirror lookup()'s dual-key rule: dropping a VPN must also drop
    // a global/protected entry, or the mapping keeps hitting after
    // invalidation. Both erases must land even when the first one
    // shifts the second key's cell back along its probe run —
    // tests/layout_test.cc pins this down.
    std::uint64_t keys[2] = {keyOf(vpn, tagAsid()),
                             keyOf(vpn, kGlobalAsid)};
    unsigned nkeys = params_.tagged() ? 2 : 1;
    if (params_.fullyAssociative()) {
        for (unsigned k = 0; k < nkeys; ++k) {
            unsigned s = index_.find(keys[k]);
            if (s != kNoSlot) {
                noteEvict(s);
                clearValid(s);
                index_.erase(keys[k]);
            }
        }
        return;
    }
    unsigned lo, hi;
    setRange(vpn, lo, hi);
    for (unsigned s = lo; s < hi; ++s)
        for (unsigned k = 0; k < nkeys; ++k)
            if (slotValid(s) && keys_[s] == keys[k]) {
                noteEvict(s);
                clearValid(s);
            }
}

void
Tlb::invalidateAsid(Asid asid)
{
    std::uint64_t tag = params_.tagged()
                            ? (asid & asidMask_)
                            : std::uint64_t{0};
    for (unsigned s = params_.protectedSlots; s < params_.entries; ++s) {
        if (slotValid(s) && (keys_[s] >> 48) == tag) {
            noteEvict(s);
            if (params_.fullyAssociative())
                index_.erase(keys_[s]);
            clearValid(s);
        }
    }
}

unsigned
Tlb::evictRandom(unsigned n)
{
    unsigned evicted = 0;
    unsigned lo = params_.protectedSlots;
    unsigned span = params_.entries - lo;
    // Bounded sampling: up to 4n draws to find n valid victims.
    for (unsigned tries = 0; tries < 4 * n && evicted < n; ++tries) {
        unsigned s = lo + static_cast<unsigned>(rng_.uniform(span));
        if (slotValid(s)) {
            noteEvict(s);
            if (params_.fullyAssociative())
                index_.erase(keys_[s]);
            clearValid(s);
            ++evicted;
        }
    }
    return evicted;
}

void
Tlb::setCurrentAsid(Asid asid)
{
    curAsid_ = asid;
    curTag_ = params_.tagged() ? (curAsid_ & asidMask_) : 0;
}

void
Tlb::noteEvict(unsigned s)
{
    if (lifeHist_ && slotValid(s))
        lifeHist_->sampleCount(probes_ - fillProbe_[s]);
}

void
Tlb::attachResidency(Histogram *lifetime, Histogram *reuse)
{
    lifeHist_ = lifetime;
    reuseHist_ = reuse;
    probes_ = 0;
    if (lifeHist_ || reuseHist_) {
        // Entries already resident count as filled "now".
        fillProbe_.assign(params_.entries, 0);
        lastProbe_.assign(params_.entries, 0);
    } else {
        fillProbe_.clear();
        lastProbe_.clear();
    }
}

double
Tlb::missRate() const
{
    Counter total = hits_ + misses_;
    return total ? static_cast<double>(misses_) /
                       static_cast<double>(total)
                 : 0.0;
}

unsigned
Tlb::validEntries() const
{
    unsigned n = 0;
    for (std::uint64_t word : valid_)
        n += static_cast<unsigned>(std::popcount(word));
    return n;
}

bool
Tlb::auditIndex(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why += msg;
        return false;
    };
    if (!params_.fullyAssociative())
        return true; // no index to audit
    if (!index_.audit(why))
        return false;
    unsigned live = validEntries();
    if (index_.size() != live)
        return fail("index size " + std::to_string(index_.size()) +
                    " != valid entries " + std::to_string(live));
    // Every index entry points at a valid slot holding that key.
    bool ok = true;
    std::string detail;
    index_.forEach([&](std::uint64_t key, unsigned s) {
        if (s >= params_.entries) {
            ok = false;
            detail += "index entry out of range; ";
        } else if (!slotValid(s)) {
            ok = false;
            detail += "index entry points at invalid slot " +
                      std::to_string(s) + "; ";
        } else if (keys_[s] != key) {
            ok = false;
            detail += "index key mismatch at slot " +
                      std::to_string(s) + "; ";
        }
    });
    if (!ok)
        return fail(detail);
    // Every valid slot is findable under its own key.
    for (unsigned s = 0; s < params_.entries; ++s) {
        if (!slotValid(s))
            continue;
        unsigned p = index_.find(keys_[s]);
        if (p == kNoSlot)
            return fail("valid slot " + std::to_string(s) +
                        " missing from index");
        if (p != s)
            return fail("index maps slot " + std::to_string(s) +
                        "'s key to slot " + std::to_string(p));
    }
    return true;
}

} // namespace vmsim
