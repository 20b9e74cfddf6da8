#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace vmsim
{

namespace
{

/** splitmix64 step, used to expand the user seed into engine state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

Random::Random(std::uint64_t seed)
{
    // xoshiro state must not be all-zero; splitmix64 guarantees a good
    // spread even for small or zero seeds.
    for (auto &s : s_)
        s = splitmix64(seed);
}

std::uint64_t
Random::geometric(double p, std::uint64_t cap)
{
    if (p >= 1.0)
        return 0;
    if (p <= 0.0)
        return cap;
    double u = uniformReal();
    // Inverse-CDF; u == 0 maps to 0 failures.
    double k = std::floor(std::log1p(-u) / std::log1p(-p));
    if (k < 0)
        k = 0;
    auto v = static_cast<std::uint64_t>(k);
    return v > cap ? cap : v;
}

Bernoulli::Bernoulli(double p)
{
    fatalIf(!(p >= 0.0 && p <= 1.0), "probability ", p, " outside [0, 1]");
    // ceil(0 * 2^53) is 0, "never"; p == 1 must not draw, unlike 2^53.
    const double scaled = std::ceil(p * 0x1.0p53);
    threshold_ = p == 1.0 ? kAlways : static_cast<std::uint64_t>(scaled);
}

} // namespace vmsim
