/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behavior in vmsim (TLB random replacement, synthetic
 * workload generation) flows through this generator so that every
 * simulation is exactly reproducible from its seed. The engine is
 * xoshiro256**, which is fast, tiny, and has no measurable bias for the
 * uses here. The per-draw calls are header-defined so hot loops inline them.
 */

#ifndef VMSIM_BASE_RANDOM_HH
#define VMSIM_BASE_RANDOM_HH

#include <cstdint>

namespace vmsim
{

/**
 * A probability fixed at build time, drawn as one integer compare.
 * For 0 < p < 1, uniformReal() < p holds exactly when
 * (next() >> 11) < ceil(p * 2^53): both sides compare the same 53-bit
 * integer k, the double k * 2^-53 is exact, and p * 2^53 is exact
 * because scaling by a power of two only moves the exponent. So
 * Random::chance(Bernoulli(p)) returns what chance(p) returns and
 * consumes the same draws; p == 0 and p == 1 decide without a draw.
 */
class Bernoulli
{
  public:
    /** fatal() unless 0 <= @p p <= 1. */
    explicit Bernoulli(double p);

  private:
    friend class Random;

    static constexpr std::uint64_t kAlways = ~std::uint64_t{0};

    std::uint64_t threshold_; ///< 0: never; kAlways: always, no draw
};

/**
 * A seeded xoshiro256** PRNG with convenience draws for the simulator.
 *
 * Copyable: copying forks the stream (both copies produce the same
 * subsequent values), which is occasionally useful in tests.
 */
class Random
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Random(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit draw. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /**
     * Uniform integer in [0, bound). @p bound == 0 is treated as a full
     * 64-bit draw. Uses rejection sampling to avoid modulo bias.
     */
    std::uint64_t
    uniform(std::uint64_t bound)
    {
        if (bound == 0)
            return next();
        // Rejection sampling: discard draws in the biased tail.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive. @pre lo <= hi */
    std::uint64_t
    uniformRange(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + uniform(hi - lo + 1);
    }

    /** Uniform double in [0, 1): the 53 high-order bits of next(). */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability @p p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

    /** chance(p) for the Bernoulli(p) @p b, as one integer compare. */
    bool
    chance(const Bernoulli &b)
    {
        if (b.threshold_ == 0 || b.threshold_ == Bernoulli::kAlways)
            return b.threshold_ != 0;
        return (next() >> 11) < b.threshold_;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability @p p in (0, 1]. Capped at @p cap.
     */
    std::uint64_t geometric(double p, std::uint64_t cap = 1u << 20);

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace vmsim

#endif // VMSIM_BASE_RANDOM_HH
