#include "mem/cache.hh"

#include <algorithm>
#include <sstream>

#include "base/intmath.hh"
#include "base/logging.hh"

namespace vmsim
{

std::string
CacheParams::toString() const
{
    std::ostringstream oss;
    // Render exactly: sub-1KB and non-multiple sizes in bytes (512B,
    // 1536B), never truncated to "0KB"/"1KB".
    if (sizeBytes >= 1024 * 1024 && sizeBytes % (1024 * 1024) == 0)
        oss << (sizeBytes >> 20) << "MB";
    else if (sizeBytes >= 1024 && sizeBytes % 1024 == 0)
        oss << (sizeBytes >> 10) << "KB";
    else
        oss << sizeBytes << "B";
    oss << "/" << lineSize << "B/";
    if (assoc == 1)
        oss << "direct";
    else
        oss << assoc << "way";
    return oss.str();
}

Cache::Cache(const CacheParams &params, std::uint64_t seed)
    : params_(params), rng_(seed)
{
    fatalIf(params_.sizeBytes == 0, "cache size must be nonzero");
    fatalIf(!isPowerOf2(params_.sizeBytes),
            "cache size ", params_.sizeBytes, " is not a power of two");
    fatalIf(!isPowerOf2(params_.lineSize) || params_.lineSize < 4,
            "cache line size ", params_.lineSize, " invalid");
    fatalIf(params_.assoc == 0, "associativity must be >= 1");
    fatalIf(params_.sizeBytes % (std::uint64_t{params_.lineSize} *
                                 params_.assoc) != 0,
            "cache size not divisible by line size * associativity");

    std::uint64_t sets = params_.numSets();
    fatalIf(sets == 0 || !isPowerOf2(sets),
            "cache must have a power-of-two number of sets, got ", sets);

    lineBits_ = floorLog2(params_.lineSize);
    lineMask_ = params_.lineSize - 1;
    setMask_ = sets - 1;
    lines_.assign(sets * params_.assoc, kEmpty);
    if (params_.assoc > 1)
        stamps_.assign(lines_.size(), 0);
}

bool
Cache::accessAssoc(Addr addr)
{
    const Addr line = addr >> lineBits_;
    Addr *ways = &lines_[setBase(line)];
    std::uint64_t *stamps = &stamps_[setBase(line)];
    const unsigned assoc = params_.assoc;

    ++stamp_;
    for (unsigned w = 0; w < assoc; ++w) {
        if (ways[w] == line) {
            stamps[w] = stamp_;
            return true;
        }
    }

    ++misses_;

    // Fill: prefer an empty way, else replace per policy.
    unsigned victim = static_cast<unsigned>(
        std::find(ways, ways + assoc, kEmpty) - ways);
    if (victim == assoc) {
        if (params_.repl == CacheRepl::Random) {
            victim = static_cast<unsigned>(rng_.uniform(assoc));
        } else {
            victim = 0;
            for (unsigned w = 1; w < assoc; ++w)
                if (stamps[w] < stamps[victim])
                    victim = w;
        }
    }
    ways[victim] = line;
    stamps[victim] = stamp_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = addr >> lineBits_;
    const Addr *ways = &lines_[setBase(line)];
    return std::find(ways, ways + params_.assoc, line) !=
           ways + params_.assoc;
}

void
Cache::invalidate(Addr addr)
{
    const Addr line = addr >> lineBits_;
    Addr *ways = &lines_[setBase(line)];
    std::replace(ways, ways + params_.assoc, line, kEmpty);
}

void
Cache::invalidateAll()
{
    std::fill(lines_.begin(), lines_.end(), kEmpty);
}

double
Cache::missRate() const
{
    return accesses_ ? static_cast<double>(misses_) /
                           static_cast<double>(accesses_)
                     : 0.0;
}

std::uint64_t
Cache::validLines() const
{
    return lines_.size() -
           static_cast<std::uint64_t>(
               std::count(lines_.begin(), lines_.end(), kEmpty));
}

} // namespace vmsim
