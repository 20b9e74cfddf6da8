/**
 * @file
 * Lightweight statistics collection: scalar counters, running
 * distributions, and fixed-bucket histograms. Modeled loosely on gem5's
 * statistics package but kept minimal — the simulator's hot loop only
 * ever increments counters; summary math happens at reporting time.
 */

#ifndef VMSIM_BASE_STATS_HH
#define VMSIM_BASE_STATS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace vmsim
{

/**
 * Running distribution of a stream of samples: count, sum, min, max,
 * and variance via Welford's online algorithm.
 */
class Distribution
{
  public:
    Distribution() { reset(); }

    /** Record one sample. */
    void
    sample(double v)
    {
        ++count_;
        if (v < min_ || count_ == 1)
            min_ = v;
        if (v > max_ || count_ == 1)
            max_ = v;
        sum_ += v;
        double delta = v - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (v - mean_);
    }

    /** Clear all accumulated state. */
    void
    reset()
    {
        count_ = 0;
        sum_ = mean_ = m2_ = 0.0;
        min_ = max_ = 0.0;
    }

    Counter count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return min_; }
    double max() const { return max_; }

    /** Population variance; zero for fewer than two samples. */
    double
    variance() const
    {
        return count_ > 1 ? m2_ / static_cast<double>(count_) : 0.0;
    }

    double stddev() const;

  private:
    Counter count_;
    double sum_;
    double mean_;
    double m2_;
    double min_;
    double max_;
};

/**
 * Histogram with uniform or log-spaced buckets over [lo, hi);
 * out-of-range samples land in underflow/overflow bins. Log spacing
 * (via logSpaced()) suits latency-style data whose interesting
 * structure spans several orders of magnitude.
 *
 * Integer samples (cycle counts, probe distances) have an exact fast
 * path, sampleCount(): at construction each bin's lowest integer is
 * found by binary search over the same bucket formula sample() uses,
 * so a sample below kIntBound costs a clz, one guide-table load and a
 * fixed count (two for the latency geometries) of branch-free edge
 * compares instead of a divide, a log and a second divide. The
 * derived table is immutable and shared between copies.
 */
class Histogram
{
  public:
    /**
     * Integer samples below this use the edge table. Consecutive
     * integers below it are many ulps apart in both bucket formulas,
     * so the formula is monotone there and binary search finds exact
     * edges. Histograms with hi >= kIntBound keep the double path.
     */
    static constexpr Counter kIntBound = Counter(1) << 40;

    /**
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket (exclusive)
     * @param nbuckets number of uniform buckets, > 0
     */
    Histogram(double lo, double hi, unsigned nbuckets)
        : Histogram(lo, hi, nbuckets, false)
    {
    }

    /**
     * Histogram whose bucket edges grow geometrically from @p lo to
     * @p hi (each bucket (hi/lo)^(1/nbuckets) wider than the last).
     * Requires lo > 0.
     */
    static Histogram logSpaced(double lo, double hi, unsigned nbuckets);

    /** Record one sample. A NaN sample is fatal. */
    void sample(double v);

    /**
     * Record the integer sample @p n. Equal to sample(double(n)) in
     * every counter and bucket; only the cost differs.
     */
    void
    sampleCount(Counter n)
    {
        if (n >= intLimit_) {
            sample(static_cast<double>(n));
            return;
        }
        // A fixed step count per histogram keeps the loop branch
        // predictable whichever bin the sample falls in.
        const IntEdges &t = *intEdges_;
        std::size_t b = t.guide[63 - std::countl_zero(n | 1)];
        for (unsigned i = 0; i < t.steps; ++i)
            b += n >= t.edge[b + 1];
        ++count_;
        ++bins_[b];
    }

    /** Clear all buckets. */
    void reset();

    /** Fold @p other into this one; geometries must match exactly. */
    void merge(const Histogram &other);

    /**
     * Remove @p other's counts from this one (for interval deltas
     * against an earlier snapshot); geometries must match and every
     * bin of @p other must be <= the corresponding bin here. On a
     * fatal mismatch this histogram is left unchanged.
     */
    void subtract(const Histogram &other);

    /**
     * Value at percentile @p p in [0, 1], linearly interpolated inside
     * its bucket. Underflow samples report lo, overflow samples hi; an
     * empty histogram reports 0.
     */
    double percentile(double p) const;

    /** True when bounds, bucket count and spacing all match. */
    bool sameGeometry(const Histogram &other) const;

    /** "[lo, hi) x N uniform|log" — for mismatch diagnostics. */
    std::string geometryString() const;

    Counter count() const { return count_; }
    Counter underflow() const { return bins_.front(); }
    Counter overflow() const { return bins_.back(); }
    unsigned numBuckets() const { return (unsigned)bins_.size() - 2; }
    Counter
    bucket(unsigned i) const
    {
        if (i >= numBuckets())
            throw std::out_of_range("Histogram::bucket");
        return bins_[i + 1];
    }
    double lo() const { return lo_; }
    double hi() const { return hi_; }
    bool isLog() const { return log_; }

    /** Lower edge of bucket @p i; bucketLo(numBuckets()) == hi. */
    double bucketLo(unsigned i) const;

    /** Render as a one-line summary plus per-bucket counts. */
    std::string toString(const std::string &name) const;

  private:
    /**
     * Most edges one octave [2^k, 2^(k+1)) of integer samples may lie
     * past its guide entry. Geometries needing more (fine uniform
     * buckets, where the double path is a subtract and a divide
     * anyway) keep the double path.
     */
    static constexpr unsigned kMaxSteps = 4;

    /**
     * Integer edges of the bins: edge[b] is the smallest integer whose
     * sample lands in bin b or later (kIntBound if none below it),
     * with a ~0 sentinel past the overflow bin. guide[k] is the bin of
     * the smallest integer with floor(log2) == k (0 and 1 share k = 0),
     * and no integer of that octave lies more than @c steps edges past
     * it.
     */
    struct IntEdges
    {
        std::array<std::uint32_t, 64> guide{};
        unsigned steps = 0;
        std::vector<Counter> edge;
    };

    Histogram(double lo, double hi, unsigned nbuckets, bool log);

    /**
     * Bin of @p v by the bucket formula: 0 is underflow, 1..N the
     * buckets, N + 1 overflow.
     */
    std::size_t binOf(double v) const;

    /**
     * Derive intEdges_ from binOf(). The integer path is on when
     * hi < kIntBound and no octave crosses more than kMaxSteps edges.
     */
    void buildIntEdges();

    double lo_;
    double hi_;
    double width_;
    bool log_;
    double logRatio_ = 0.0; // ln of the per-bucket growth factor
    Counter intLimit_ = 0;  // sampleCount() uses intEdges_ below this
    Counter count_ = 0;
    std::vector<Counter> bins_; ///< underflow, buckets..., overflow
    std::shared_ptr<const IntEdges> intEdges_;
};

/**
 * A named scalar counter group: maps stable string keys to counters for
 * ad-hoc reporting (used by benches to dump raw event counts). A hash
 * index makes add()/get() O(1) while iteration stays insertion-ordered.
 */
class CounterGroup
{
  public:
    /** Add @p delta to the counter named @p key (created at zero). */
    void add(const std::string &key, Counter delta = 1);

    /** Read the counter named @p key (zero if never written). */
    Counter get(const std::string &key) const;

    /** All (key, value) pairs in insertion order. */
    const std::vector<std::pair<std::string, Counter>> &entries() const
    {
        return entries_;
    }

    void reset();

  private:
    std::unordered_map<std::string, std::size_t> index_;
    std::vector<std::pair<std::string, Counter>> entries_;
};

} // namespace vmsim

#endif // VMSIM_BASE_STATS_HH
