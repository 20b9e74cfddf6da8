/**
 * @file
 * Translation lookaside buffer model.
 *
 * The paper's TLBs are fully associative with random replacement
 * ("similar to MIPS"), split into a 128-entry I-TLB and a 128-entry
 * D-TLB. The MIPS-like systems (ULTRIX, MACH) reserve the 16 lowest
 * slots for "protected" entries holding root/kernel-level PTE mappings;
 * the INTEL and PA-RISC simulations leave the TLB unpartitioned.
 *
 * vmsim models exactly that — a slot array partitioned into a
 * protected region [0, protectedSlots) and a normal region
 * [protectedSlots, entries), each replaced randomly within its own
 * region — plus three extensions real MMUs of the era shipped and the
 * ablation benches exercise:
 *
 *  - LRU / FIFO replacement (TlbParams::repl);
 *  - set associativity (TlbParams::assoc != 0): the normal region is
 *    organized as sets indexed by low VPN bits, as in the x86 and
 *    PowerPC TLBs, instead of fully associative;
 *  - ASID tagging (TlbParams::asidBits != 0): entries carry an
 *    address-space id and only hit when it matches the current ASID,
 *    so context switches (setCurrentAsid) need no flush. Protected
 *    entries are global, matching MIPS's G-bit kernel mappings.
 *
 * Data layout (DESIGN.md "Hot-path data layout"): entries are stored
 * structure-of-arrays — packed keys, a validity bitmap, and
 * replacement stamps in separate cache-line-aligned vectors — so the
 * set-associative dual-key ASID probe is a linear scan over packed
 * keys and a replacement-stamp update touches only the stamp line.
 * Validity is one bit per slot: a fill finds the lowest invalid slot
 * of its region with a masked count-trailing-zeros scan, 64 slots per
 * word, and validEntries() is a popcount. The fully-associative
 * key->slot index is a SlotIndex (base/slot_index.hh), not a
 * general-purpose growable map: a TLB holds at most `entries` keys,
 * so the index is sized once at load <= 1/4 and never grows, each
 * {key, slot} pair sits in one cell, a probe is one multiply and
 * (almost always) one cell, and erase shifts the probe run back
 * instead of leaving tombstones. Every slot decision (victim draw,
 * lowest-invalid-slot choice, LRU/FIFO stamps) reads only the slot
 * arrays, so the index layout cannot move a counter.
 *
 * evictRandom() supports the multiprogramming model where competing
 * processes displace a fraction of a process's entries between its
 * quanta.
 */

#ifndef VMSIM_TLB_TLB_HH
#define VMSIM_TLB_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/aligned.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/types.hh"
#include "base/slot_index.hh"

namespace vmsim
{

/** Replacement policy for the TLB's slot regions. */
enum class TlbRepl : std::uint8_t { Random, LRU, FIFO };

/** An address-space identifier. */
using Asid = std::uint16_t;

/** Configuration of one TLB (I or D side). */
struct TlbParams
{
    /** Total mapping slots (paper: 128 per side). */
    unsigned entries = 128;

    /**
     * Slots reserved for protected (root/kernel PTE) mappings
     * (paper: 16 for ULTRIX and MACH, 0 for INTEL and PA-RISC).
     * Only supported for fully-associative TLBs.
     */
    unsigned protectedSlots = 0;

    /** Replacement policy (paper: Random). */
    TlbRepl repl = TlbRepl::Random;

    /**
     * Associativity; 0 (the paper's configuration) means fully
     * associative. Nonzero organizes the TLB as entries/assoc sets
     * indexed by low VPN bits.
     */
    unsigned assoc = 0;

    /**
     * Bits of ASID tag; 0 (the paper's configuration) means untagged
     * — a context switch must flush. Nonzero entries hit only under
     * the inserting ASID (protected entries are global).
     */
    unsigned asidBits = 0;

    bool fullyAssociative() const { return assoc == 0; }
    bool tagged() const { return asidBits != 0; }

    std::string toString() const;
};

/**
 * TLB with protected-slot partition, optional set associativity and
 * optional ASID tagging. lookup() is the hot path: a SlotIndex probe
 * when fully associative, a linear scan over the set's packed keys
 * otherwise.
 */
class Tlb
{
  public:
    Tlb(const TlbParams &params, std::uint64_t seed = 1);

    /**
     * Probe for @p vpn under the current ASID and record a hit or
     * miss. Hits refresh LRU state. @return true on hit.
     *
     * The kObs=false instantiation omits the residency-histogram
     * bookkeeping entirely; it is only legal while no histograms are
     * attached (attachResidency unattached), where the two
     * instantiations are byte-identical in effect. Forced inline: the
     * kernels and the walks all probe through it, and with that many
     * callers the compiler otherwise calls it out of line.
     */
    template <bool kObs>
    [[gnu::always_inline]] bool
    lookupT(Vpn vpn)
    {
        if constexpr (kObs) {
            if (lifeHist_ || reuseHist_)
                ++probes_;
        }
        unsigned s = findSlot(vpn);
        if (s == kNoSlot) {
            ++misses_;
            return false;
        }
        ++hits_;
        if constexpr (kObs) {
            if (reuseHist_)
                sampleReuse(s);
        }
        if (params_.repl == TlbRepl::LRU)
            stamps_[s] = ++stamp_;
        return true;
    }

    /**
     * lookupT<false>(@p vpn) if @p take, else no effect, with no branch
     * on @p take (a front end takes its D-TLB probes on loads and
     * stores, which a trace interleaves at random). A probe not taken
     * still reads the index: give it a VPN that likely hits.
     * @return false only for a miss that @p take counts.
     */
    [[gnu::always_inline]] bool
    lookupIf(bool take, Vpn vpn)
    {
        const unsigned s = findSlot(vpn);
        const unsigned t = take;
        if ((unsigned{s == kNoSlot} & t) != 0) {
            ++misses_;
            return false;
        }
        hits_ += t;
        if (params_.repl == TlbRepl::LRU) {
            // A probe not taken stamps the spare slot past the last.
            stamp_ += t;
            stamps_[t ? s : params_.entries] = stamp_;
        }
        return true;
    }

    /** Fully-observed probe (safe whether or not histograms attach). */
    bool lookup(Vpn vpn) { return lookupT<true>(vpn); }

    /** Probe without touching statistics or LRU state. */
    bool contains(Vpn vpn) const { return findSlot(vpn) != kNoSlot; }

    /**
     * Insert a mapping for @p vpn (tagged with the current ASID if
     * tagging is enabled), evicting per policy if needed. Inserting a
     * resident VPN refreshes it in place.
     */
    void insert(Vpn vpn);

    /**
     * Insert a global mapping into the protected region (root/kernel
     * PTE mappings in the ULTRIX and MACH simulations).
     * @pre params().protectedSlots > 0
     */
    void insertProtected(Vpn vpn);

    /** Drop every mapping (context switch without ASIDs). */
    void invalidateAll();

    /**
     * Drop @p vpn (under the current ASID) if resident. The probe is
     * inline, so the common absent case makes no call.
     * @return whether @p vpn was resident.
     */
    bool
    invalidate(Vpn vpn)
    {
        if (findSlot(vpn) == kNoSlot)
            return false;
        eraseResident(vpn);
        return true;
    }

    /** Drop every non-protected mapping belonging to @p asid. */
    void invalidateAsid(Asid asid);

    /**
     * Evict up to @p n randomly-chosen valid normal entries — models
     * displacement by other processes between scheduling quanta.
     * @return entries actually evicted.
     */
    unsigned evictRandom(unsigned n);

    /** Switch address spaces (meaningful only when tagged). */
    void setCurrentAsid(Asid asid);

    const TlbParams &params() const { return params_; }

    Counter hits() const { return hits_; }
    Counter misses() const { return misses_; }
    Counter accesses() const { return hits_ + misses_; }
    double missRate() const;

    /** Currently valid entries (both regions). */
    unsigned validEntries() const;

    void resetStats() { hits_ = misses_ = 0; }

    /**
     * Audit the key->slot index against the slot arrays (the ground
     * truth): every valid slot must be findable under its own key,
     * every index entry must point at a valid slot holding that key,
     * and the live-entry counts must agree. Also checks the index's
     * own invariants (SlotIndex::audit): no empty cell between a live
     * cell and its home, and the load within its fixed bound.
     * Trivially true for set-associative TLBs (no index). Used by
     * checkLiveTlb and the layout and index tests to prove that
     * backward-shift erases under invalidate/evict never leave the
     * probe runs inconsistent. @return true if consistent; on failure
     * appends a reason to @p why if non-null.
     */
    bool auditIndex(std::string *why = nullptr) const;

    /** Slot @p s holds a valid entry. */
    bool
    slotValid(unsigned s) const
    {
        return (valid_[s >> 6] >> (s & 63)) & 1;
    }

    /**
     * Slot @p s's tag, `(asid << 48) | vpn`, where asid is the
     * inserting ASID (0 when untagged) or 0xffff for a global entry
     * of a tagged TLB. Meaningful only while slotValid(s).
     */
    std::uint64_t slotKey(unsigned s) const { return keys_[s]; }

    /**
     * Attach residency histograms (not owned; nullptr detaches both):
     * @p lifetime receives each evicted entry's residency and
     * @p reuse each hit's distance since the entry was last touched,
     * both measured in lookup probes of this TLB (a deterministic
     * simulated timebase). Attaching restarts the probe clock;
     * entries already resident count as filled at attach time.
     * Purely observational — replacement decisions and statistics are
     * unaffected.
     */
    void attachResidency(Histogram *lifetime, Histogram *reuse);

  private:
    /** findSlot()'s "not resident" answer. */
    static constexpr unsigned kNoSlot = SlotIndex::kNone;

    /** invalidate()'s erase, once findSlot() has found @p vpn. */
    void eraseResident(Vpn vpn);

    /**
     * Slot tag: VPN plus ASID. Protected/global entries use
     * kGlobalAsid so they hit under any current ASID.
     */
    static constexpr std::uint64_t kGlobalAsid = 0xffff;

    std::uint64_t
    keyOf(Vpn vpn, std::uint64_t asid) const
    {
        return (asid << 48) | vpn;
    }

    /** ASID used for normal-entry keys right now (cached curTag_). */
    std::uint64_t tagAsid() const { return curTag_; }

    /**
     * Fill @p key into slot region [lo, hi): the lowest invalid slot,
     * else the policy's victim. @pre @p key is not resident.
     */
    void insertInRegion(std::uint64_t key, unsigned lo, unsigned hi);

    /** Lowest invalid slot in [lo, hi), or @p hi if all are valid. */
    unsigned firstInvalid(unsigned lo, unsigned hi) const;

    void
    setValid(unsigned s)
    {
        valid_[s >> 6] |= std::uint64_t{1} << (s & 63);
    }

    void
    clearValid(unsigned s)
    {
        valid_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    }

    /**
     * The slot holding @p vpn under the current ASID *or* the global
     * tag, or kNoSlot if absent (no stats). The single probe shared
     * by lookup/contains/insert/invalidate so every path sees the
     * same dual-key residency rule. Fully associative: one or two
     * SlotIndex probes. Set associative: a linear scan over the set's
     * packed keys.
     */
    unsigned
    findSlot(Vpn vpn) const
    {
        if (params_.fullyAssociative()) [[likely]] {
            unsigned s = index_.find(keyOf(vpn, curTag_));
            if (s == kNoSlot && params_.tagged())
                s = index_.find(keyOf(vpn, kGlobalAsid));
            return s;
        }
        unsigned lo, hi;
        setRange(vpn, lo, hi);
        std::uint64_t key = keyOf(vpn, curTag_);
        std::uint64_t gkey = keyOf(vpn, kGlobalAsid);
        for (unsigned s = lo; s < hi; ++s)
            if (slotValid(s) &&
                (keys_[s] == key ||
                 (params_.tagged() && keys_[s] == gkey)))
                return s;
        return kNoSlot;
    }

    /** Set-associative region bounds for @p vpn. */
    void
    setRange(Vpn vpn, unsigned &lo, unsigned &hi) const
    {
        unsigned set = static_cast<unsigned>(vpn & (numSets_ - 1));
        lo = set * params_.assoc;
        hi = lo + params_.assoc;
    }

    /** Sample slot @p s's reuse distance (reuseHist_ attached). */
    void
    sampleReuse(unsigned s)
    {
        reuseHist_->sampleCount(probes_ - lastProbe_[s]);
        lastProbe_[s] = probes_;
    }

    /** Sample slot @p s's lifetime into lifeHist_ if it is valid. */
    void noteEvict(unsigned s);

    /** Stamp slot @p s's fill time on the residency clock. */
    void
    noteFill(unsigned s)
    {
        if (lifeHist_ || reuseHist_) {
            fillProbe_[s] = probes_;
            lastProbe_[s] = probes_;
        }
    }

    TlbParams params_;
    std::uint64_t asidMask_ = 0;
    Asid curAsid_ = 0;
    std::uint64_t curTag_ = 0; ///< cached tagAsid() for the hot probe

    /**
     * Entry storage, structure-of-arrays: packed keys, a validity
     * bitmap, and replacement stamps in separate cache-line-aligned
     * vectors (slot s is keys_[s], bit s % 64 of valid_[s / 64], and
     * stamps_[s]). Bits past `entries` in the last word stay clear.
     */
    AlignedVec<std::uint64_t> keys_;
    AlignedVec<std::uint64_t> valid_;
    AlignedVec<std::uint64_t> stamps_; ///< LRU: last touch; FIFO: fill;
                                       ///< one spare (lookupIf())

    SlotIndex index_; ///< FA: key->slot; empty when set-associative
    Random rng_;
    std::uint64_t stamp_ = 0;
    unsigned numSets_ = 1; ///< set-associative only
    Counter hits_ = 0;
    Counter misses_ = 0;

    /** @name Residency observation (inert while lifeHist_ is null). @{ */
    Histogram *lifeHist_ = nullptr;
    Histogram *reuseHist_ = nullptr;
    Counter probes_ = 0; ///< lookup clock for lifetimes / reuse
    std::vector<Counter> fillProbe_; ///< per-slot fill time
    std::vector<Counter> lastProbe_; ///< per-slot last-touch time
    /** @} */
};

} // namespace vmsim

#endif // VMSIM_TLB_TLB_HH
