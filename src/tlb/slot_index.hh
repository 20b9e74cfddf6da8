/**
 * @file
 * Fixed-capacity key->slot index for the fully-associative TLB.
 *
 * A TLB holds at most `entries` keys, so its index never needs to
 * grow. SlotIndex is sized once, to a power of two at least four
 * times the key bound, and keeps each {key, slot} pair in one 16-byte
 * cell. A probe is one Fibonacci multiply for the home cell, then a
 * linear scan that at load <= 1/4 almost always stops on the first
 * cell. Empty cells carry the slot sentinel kNone (key 0 is a valid
 * key). Erase uses backward-shift deletion: later members of the
 * probe run move back over the hole, so there are no tombstones, no
 * purge and no second table, and the chain invariant (no empty cell
 * between a live cell and its home) holds after every operation.
 *
 * Iteration order (forEach) is cell order and depends on insertion
 * history; no simulator decision may depend on it.
 */

#ifndef VMSIM_TLB_SLOT_INDEX_HH
#define VMSIM_TLB_SLOT_INDEX_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

#include "base/aligned.hh"
#include "base/intmath.hh"

namespace vmsim
{

class SlotIndex
{
  public:
    /** Slot sentinel: marks empty cells and a failed find(). */
    static constexpr unsigned kNone = ~0u;

    /** An index with no cells (set-associative TLBs keep no index). */
    SlotIndex() = default;

    /** Room for @p maxKeys live keys at load <= 1/4. @pre maxKeys > 0 */
    explicit SlotIndex(unsigned maxKeys)
        : maxKeys_(maxKeys),
          shift_(64 - ceilLog2(4 * std::uint64_t{maxKeys})),
          mask_((std::size_t{1} << (64 - shift_)) - 1),
          cells_(mask_ + 1)
    {
        clear();
    }

    /** The slot stored under @p key, or kNone. */
    unsigned
    find(std::uint64_t key) const
    {
        std::size_t i = home(key);
        for (;;) {
            const Cell &c = cells_[i];
            if (c.slot == kNone || c.key == key)
                return c.slot;
            i = (i + 1) & mask_;
        }
    }

    /**
     * Store @p key -> @p slot. @pre @p key is absent (every TLB fill
     * follows a missed probe) and fewer than the constructor's
     * maxKeys keys are stored.
     */
    void
    insertNew(std::uint64_t key, unsigned slot)
    {
        std::size_t i = home(key);
        while (cells_[i].slot != kNone)
            i = (i + 1) & mask_;
        cells_[i] = Cell{key, slot};
        ++size_;
    }

    /** Remove @p key if present. @return true if it was present. */
    bool
    erase(std::uint64_t key)
    {
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (cells_[i].slot == kNone)
                return false;
            if (cells_[i].key == key)
                break;
        }
        // Backward shift: walk the run after the hole at i. An entry
        // whose home lies cyclically in (i, j] is still reachable
        // where it is; any other entry moves back into the hole.
        for (std::size_t j = (i + 1) & mask_; cells_[j].slot != kNone;
             j = (j + 1) & mask_) {
            std::size_t fromHole = (home(cells_[j].key) - i) & mask_;
            if (fromHole != 0 && fromHole <= ((j - i) & mask_))
                continue;
            cells_[i] = cells_[j];
            i = j;
        }
        cells_[i].slot = kNone;
        --size_;
        return true;
    }

    /** Drop every key; the capacity stays. */
    void
    clear()
    {
        std::fill(cells_.begin(), cells_.end(), Cell{~0ull, kNone});
        size_ = 0;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cells_.size(); }

    /** Home cell of @p key: the top bits of one Fibonacci multiply. */
    std::size_t
    home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** Visit every live {key, slot} pair, in cell order. */
    template <class Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Cell &c : cells_)
            if (c.slot != kNone)
                fn(c.key, c.slot);
    }

    /**
     * Check the table's own invariants: the live-cell count equals
     * size(), size() stays within the constructor's maxKeys (so the
     * load is at most 1/4), and no empty cell lies between a live cell
     * and its home.
     * @return true if all hold; on failure appends a reason to @p why
     * if non-null.
     */
    bool audit(std::string *why = nullptr) const;

  private:
    struct Cell
    {
        std::uint64_t key;
        unsigned slot;
    };

    unsigned maxKeys_ = 0;
    unsigned shift_ = 64;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    AlignedVec<Cell> cells_;
};

inline bool
SlotIndex::audit(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why += msg;
        return false;
    };
    std::size_t live = 0;
    for (std::size_t j = 0; j < cells_.size(); ++j) {
        if (cells_[j].slot == kNone)
            continue;
        ++live;
        for (std::size_t i = home(cells_[j].key); i != j;
             i = (i + 1) & mask_)
            if (cells_[i].slot == kNone)
                return fail("empty cell " + std::to_string(i) +
                            " breaks the probe run from home to cell " +
                            std::to_string(j) + "; ");
    }
    if (live != size_)
        return fail("live cells " + std::to_string(live) +
                    " != size " + std::to_string(size_) + "; ");
    if (size_ > maxKeys_ || 4 * std::size_t{maxKeys_} > cells_.size())
        return fail("load " + std::to_string(size_) + "/" +
                    std::to_string(cells_.size()) +
                    " exceeds the bound of " + std::to_string(maxKeys_) +
                    " keys at 1/4; ");
    return true;
}

} // namespace vmsim

#endif // VMSIM_TLB_SLOT_INDEX_HH
