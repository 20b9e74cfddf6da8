#ifndef VMSIM_BASE_FLAT_HASH_HH
#define VMSIM_BASE_FLAT_HASH_HH

// Open-addressed hash map from uint64_t keys to small trivially-copyable
// payloads, built for the replay hot path (docs: DESIGN.md "Hot-path data
// layout").  Compared to std::unordered_map it removes the per-node
// allocation and pointer chase: keys, values, and slot states live in
// three parallel power-of-two arrays probed linearly, so a lookup is a
// hash, a mask, and a short scan over packed memory.
//
// Key properties the simulator relies on:
//  - key 0 is a valid key (slot occupancy lives in a separate state
//    byte, not in a sentinel key value);
//  - erase leaves a tombstone so later probe chains stay intact;
//  - growth (and tombstone purges) rehash *incrementally*: a mutation
//    migrates a few buckets from the draining table per call, keeping
//    worst-case latency flat instead of paying one huge stop-the-world
//    rehash mid-replay.  Lookups consult both tables while a drain is
//    in flight.
//
// Determinism: iteration order (forEach) is table order and therefore
// depends on insertion history, exactly like unordered_map's order
// depended on its internals.  No simulator counter may depend on it;
// call sites that need an order sort explicitly.

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "base/intmath.hh"

namespace vmsim {

template <class V>
class FlatMap64 {
  public:
    explicit FlatMap64(std::size_t expected = 0) { reserve(expected); }

    // Pre-size so `expected` live keys fit without triggering a grow.
    void reserve(std::size_t expected) {
        std::size_t want = capacityFor(expected);
        if (want <= cur_.capacity())
            return;
        Table next(want);
        // Fold both existing tables into the new one up front; reserve
        // is a cold call (construction / region setup), so a full
        // migration here is fine.
        migrateAll(old_, next);
        migrateAll(cur_, next);
        cur_ = std::move(next);
        old_ = Table();
    }

    // Returns a pointer to the value for `key`, or nullptr.  Probes the
    // current table first, then the draining one (if a rehash is in
    // flight).  Never mutates, so it is safe on const hot paths.
    const V *find(uint64_t key) const {
        if (const V *v = cur_.find(key))
            return v;
        if (!old_.empty())
            return old_.find(key);
        return nullptr;
    }

    V *find(uint64_t key) {
        return const_cast<V *>(static_cast<const FlatMap64 *>(this)->find(key));
    }

    // Insert a key that is known to be absent.  Every call site in the
    // simulator checks find() first (first-touch frame allocation,
    // page-table page creation), so the map skips the duplicate probe.
    void insertNew(uint64_t key, const V &value) {
        step();
        maybeGrow();
        cur_.insertNew(key, value);
        ++live_;
    }

    // Remove `key` if present; returns true when something was erased.
    // The slot becomes a tombstone: probe chains through it stay valid,
    // and the slot is reclaimed by the next rehash.
    bool erase(uint64_t key) {
        step();
        bool hit = cur_.erase(key);
        if (!hit && !old_.empty())
            hit = old_.erase(key);
        if (hit)
            --live_;
        return hit;
    }

    // Drop all entries but keep the current capacity (hot for
    // invalidateAll: the table will refill to roughly the same size).
    void clear() {
        cur_.clearSlots();
        old_ = Table();
        live_ = 0;
    }

    std::size_t size() const { return live_; }
    bool empty() const { return live_ == 0; }
    std::size_t capacity() const { return cur_.capacity() + old_.capacity(); }
    std::size_t tombstones() const { return cur_.tombs + old_.tombs; }
    uint64_t rehashes() const { return rehashes_; }
    bool rehashInFlight() const { return !old_.empty(); }

    // Visit every live entry (both tables during a drain).  Audit /
    // stats use only; order is unspecified.
    template <class Fn>
    void forEach(Fn &&fn) const {
        cur_.forEach(fn);
        old_.forEach(fn);
    }

  private:
    enum : uint8_t { kEmpty = 0, kFull = 1, kTomb = 2 };

    struct Table {
        std::vector<uint64_t> keys;
        std::vector<V> vals;
        std::vector<uint8_t> state;
        std::size_t mask = 0;
        std::size_t used = 0;  // full + tombstone slots
        std::size_t tombs = 0;
        std::size_t drain = 0; // next bucket to migrate out

        Table() = default;
        explicit Table(std::size_t cap)
            : keys(cap), vals(cap), state(cap, kEmpty), mask(cap - 1) {}

        bool empty() const { return keys.empty(); }
        std::size_t capacity() const { return keys.size(); }

        const V *find(uint64_t key) const {
            if (keys.empty())
                return nullptr;
            std::size_t i = hashOf(key) & mask;
            for (;;) {
                uint8_t s = state[i];
                if (s == kEmpty)
                    return nullptr;
                if (s == kFull && keys[i] == key)
                    return &vals[i];
                i = (i + 1) & mask;
            }
        }

        void insertNew(uint64_t key, const V &value) {
            std::size_t i = hashOf(key) & mask;
            while (state[i] == kFull)
                i = (i + 1) & mask;
            if (state[i] == kTomb)
                --tombs;
            else
                ++used;
            state[i] = kFull;
            keys[i] = key;
            vals[i] = value;
        }

        bool erase(uint64_t key) {
            if (keys.empty())
                return false;
            std::size_t i = hashOf(key) & mask;
            for (;;) {
                uint8_t s = state[i];
                if (s == kEmpty)
                    return false;
                if (s == kFull && keys[i] == key) {
                    state[i] = kTomb;
                    ++tombs;
                    return true;
                }
                i = (i + 1) & mask;
            }
        }

        void clearSlots() {
            std::fill(state.begin(), state.end(), uint8_t{kEmpty});
            used = 0;
            tombs = 0;
            drain = 0;
        }

        template <class Fn>
        void forEach(Fn &&fn) const {
            for (std::size_t i = 0; i < state.size(); ++i)
                if (state[i] == kFull)
                    fn(keys[i], vals[i]);
        }
    };

    // splitmix64 finalizer: cheap, and strong enough to spread the
    // VPN and page-table segment keys its clients feed it.
    static uint64_t hashOf(uint64_t x) {
        x += 0x9E3779B97F4A7C15ull;
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }

    static std::size_t capacityFor(std::size_t live) {
        std::size_t floor = live < 8 ? 16 : live * 2;
        return std::size_t{1} << ceilLog2(floor);
    }

    // Buckets migrated out of the draining table per mutating call.
    // Large enough that a drain finishes well before the next grow,
    // small enough to keep per-op latency flat.
    static constexpr std::size_t kMigrateStep = 16;

    static void migrateAll(Table &from, Table &to) {
        for (std::size_t i = 0; i < from.state.size(); ++i)
            if (from.state[i] == kFull)
                to.insertNew(from.keys[i], from.vals[i]);
    }

    void step() {
        if (old_.empty())
            return;
        std::size_t end = old_.drain + kMigrateStep;
        if (end > old_.capacity())
            end = old_.capacity();
        for (std::size_t i = old_.drain; i < end; ++i) {
            if (old_.state[i] == kFull) {
                cur_.insertNew(old_.keys[i], old_.vals[i]);
                // Tombstone, not empty: an entry displaced past its
                // home bucket must stay reachable in this table until
                // its own slot drains, so probe chains that run
                // through migrated slots may not be cut short.
                old_.state[i] = kTomb;
                ++old_.tombs;
            }
        }
        old_.drain = end;
        if (old_.drain >= old_.capacity())
            old_ = Table();
    }

    void maybeGrow() {
        std::size_t cap = cur_.capacity();
        if (cap == 0) {
            cur_ = Table(16);
            return;
        }
        // Grow when the slot array is crowding up (full + tombstones),
        // or purge when tombstones alone dominate the live count.
        bool crowded = (cur_.used + 1) * 8 > cap * 7;
        if (!crowded)
            return;
        // Never run two drains at once: finish the old one first.
        while (!old_.empty())
            step();
        std::size_t liveHere = cur_.used - cur_.tombs;
        std::size_t want = capacityFor(liveHere + 1);
        if (want < cap)
            want = cap; // mostly tombstones: purge at same capacity
        old_ = std::move(cur_);
        old_.drain = 0;
        cur_ = Table(want);
        ++rehashes_;
    }

    Table cur_;
    Table old_;
    std::size_t live_ = 0;
    uint64_t rehashes_ = 0;
};

} // namespace vmsim

#endif // VMSIM_BASE_FLAT_HASH_HH
