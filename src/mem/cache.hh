/**
 * @file
 * A single cache: the tag-state model of one side (I or D) of one level.
 *
 * The paper simulates split, direct-mapped, virtually-addressed,
 * blocking, write-allocate, write-through caches at both levels. With
 * those choices a cache is completely described by its tag state: every
 * access either hits or fills exactly one line, loads and stores behave
 * identically with respect to tag state (write-allocate), and no dirty
 * state exists (write-through). Set-associativity with LRU or random
 * replacement is also supported; the paper uses it only as a discussion
 * point ("easily solved with set associativity"), and vmsim exposes it
 * for the associativity ablation bench.
 */

#ifndef VMSIM_MEM_CACHE_HH
#define VMSIM_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"

namespace vmsim
{

/** Replacement policy for associative caches (ignored if assoc == 1). */
enum class CacheRepl : std::uint8_t { LRU, Random };

/** Geometry of one cache (one side of one level). */
struct CacheParams
{
    /** Capacity in bytes (the paper's "per side" sizes). */
    std::uint64_t sizeBytes = 0;

    /** Line size in bytes; power of two. */
    unsigned lineSize = 32;

    /** Associativity; 1 (direct-mapped) is the paper's configuration. */
    unsigned assoc = 1;

    /** Replacement policy when assoc > 1. */
    CacheRepl repl = CacheRepl::LRU;

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const { return sizeBytes / lineSize / assoc; }

    /** Render as e.g. "64KB/32B/direct". */
    std::string toString() const;

    bool operator==(const CacheParams &) const = default;
};

/**
 * Tag-state cache model. Addresses may be virtual or physical — the
 * cache does not care; in the paper's systems all caches are virtually
 * indexed and tagged, and physically-addressed page-table references
 * are simply presented in a disjoint part of the address space.
 */
class Cache
{
  public:
    /**
     * @param params geometry (validated: power-of-two sizes, size
     *               divisible by line * assoc)
     * @param seed   seed for the random-replacement stream
     */
    explicit Cache(const CacheParams &params, std::uint64_t seed = 1);

    /**
     * Access one line. On a miss the line is filled (write-allocate);
     * the caller attributes cost. @return true on hit. Direct-mapped
     * (the paper's configuration) is one load and one compare, inline;
     * associative sets go to accessAssoc().
     */
    bool
    access(Addr addr)
    {
        ++accesses_;
        if (params_.assoc != 1)
            return accessAssoc(addr);
        const Addr line = addr >> lineBits_;
        Addr &slot = lines_[line & setMask_];
        if (slot == line)
            return true;
        ++misses_;
        slot = line;
        return false;
    }

    /** Tag check without state change. @return true if present. */
    bool probe(Addr addr) const;

    /** Invalidate a single line if present. */
    void invalidate(Addr addr);

    /** Invalidate everything (cold cache). */
    void invalidateAll();

    const CacheParams &params() const { return params_; }

    Counter accesses() const { return accesses_; }
    Counter misses() const { return misses_; }
    double missRate() const;

    /** Number of currently valid lines (for occupancy diagnostics). */
    std::uint64_t validLines() const;

    /** Line-aligned base address of the line containing @p addr. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }

  private:
    /** Line number of an empty way; no address maps to it, since
     *  lineBits_ >= 2. */
    static constexpr Addr kEmpty = ~Addr{0};

    /** access() for assoc > 1: LRU or random victim, empty ways first. */
    bool accessAssoc(Addr addr);

    /** First way of the set holding line number @p line. */
    std::size_t setBase(Addr line) const
    {
        return (line & setMask_) * params_.assoc;
    }

    CacheParams params_;
    unsigned lineBits_;
    std::uint64_t lineMask_;
    std::uint64_t setMask_;
    /** Line number (addr >> lineBits_) per way, sets * assoc, way-major
     *  within a set; kEmpty marks an empty way. */
    std::vector<Addr> lines_;
    /** Last-use stamp per way; allocated only when assoc > 1. */
    std::vector<std::uint64_t> stamps_;
    Random rng_;
    std::uint64_t stamp_ = 0;
    Counter accesses_ = 0;
    Counter misses_ = 0;
};

} // namespace vmsim

#endif // VMSIM_MEM_CACHE_HH
