#include "base/stats.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"

namespace vmsim
{

double
Distribution::stddev() const
{
    return std::sqrt(variance());
}

Histogram::Histogram(double lo, double hi, unsigned nbuckets, bool log)
    : lo_(lo), hi_(hi), log_(log)
{
    fatalIf(nbuckets == 0, "Histogram needs at least one bucket");
    fatalIf(!std::isfinite(lo) || !std::isfinite(hi),
            "Histogram range [", lo, ", ", hi, ") is not finite");
    fatalIf(hi <= lo, "Histogram range [", lo, ", ", hi, ") is empty");
    fatalIf(log && lo <= 0.0, "log-spaced Histogram needs lo > 0, got ",
            lo);
    width_ = (hi - lo) / nbuckets;
    if (log)
        logRatio_ = std::log(hi / lo) / nbuckets;
    bins_.assign(std::size_t(nbuckets) + 2, 0);
    buildIntEdges();
}

Histogram
Histogram::logSpaced(double lo, double hi, unsigned nbuckets)
{
    return Histogram(lo, hi, nbuckets, true);
}

std::size_t
Histogram::binOf(double v) const
{
    if (v < lo_)
        return 0;
    const std::size_t n = bins_.size() - 2;
    if (v >= hi_)
        return n + 1;
    auto idx = log_ ? static_cast<std::size_t>(std::log(v / lo_) / logRatio_)
                    : static_cast<std::size_t>((v - lo_) / width_);
    if (idx >= n)
        idx = n - 1; // fp rounding at the top edge
    return idx + 1;
}

void
Histogram::buildIntEdges()
{
    if (!(hi_ < static_cast<double>(kIntBound)))
        return;
    auto t = std::make_shared<IntEdges>();
    const std::size_t nbins = bins_.size();
    t->edge.assign(nbins + 1, kIntBound);
    t->edge[0] = 0;
    t->edge[nbins] = ~Counter(0);
    // binOf is monotone over integers below kIntBound, so the smallest
    // integer reaching bin b is a binary search from the previous edge.
    for (std::size_t b = 1; b < nbins; ++b) {
        Counter lo = t->edge[b - 1], hi = kIntBound;
        while (lo < hi) {
            const Counter mid = lo + (hi - lo) / 2;
            if (binOf(static_cast<double>(mid)) >= b)
                hi = mid;
            else
                lo = mid + 1;
        }
        t->edge[b] = lo;
    }
    // Octave k holds [2^k, 2^(k+1)) (k = 0 also holds 0); the guide
    // names the bin of its first integer, steps the most edges any
    // other integer of an octave lies past.
    for (unsigned k = 0; (Counter(1) << k) < kIntBound; ++k) {
        const Counter first = k == 0 ? 0 : Counter(1) << k;
        const Counter last = (Counter(2) << k) - 1;
        std::uint32_t b = 0;
        while (first >= t->edge[b + 1])
            ++b;
        t->guide[k] = b;
        unsigned steps = 0;
        while (last >= t->edge[b + 1 + steps])
            ++steps;
        t->steps = std::max(t->steps, steps);
    }
    if (t->steps > kMaxSteps)
        return;
    intEdges_ = std::move(t);
    intLimit_ = kIntBound;
}

void
Histogram::sample(double v)
{
    if (std::isnan(v))
        fatal("Histogram::sample: NaN sample into ", geometryString());
    ++count_;
    ++bins_[binOf(v)];
}

void
Histogram::reset()
{
    count_ = 0;
    std::fill(bins_.begin(), bins_.end(), 0);
}

bool
Histogram::sameGeometry(const Histogram &other) const
{
    return log_ == other.log_ && lo_ == other.lo_ && hi_ == other.hi_ &&
           bins_.size() == other.bins_.size();
}

std::string
Histogram::geometryString() const
{
    std::ostringstream oss;
    oss << "[" << lo_ << ", " << hi_ << ") x " << numBuckets()
        << (log_ ? " log" : " uniform");
    return oss.str();
}

void
Histogram::merge(const Histogram &other)
{
    fatalIf(!sameGeometry(other), "Histogram::merge geometry mismatch: ",
            geometryString(), " vs ", other.geometryString());
    count_ += other.count_;
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += other.bins_[i];
}

void
Histogram::subtract(const Histogram &other)
{
    fatalIf(!sameGeometry(other),
            "Histogram::subtract geometry mismatch: ", geometryString(),
            " vs ", other.geometryString());
    // Validate every field before touching any, so a fatal leaves this
    // histogram whole.
    fatalIf(count_ < other.count_, "Histogram::subtract would go negative");
    for (std::size_t i = 0; i < bins_.size(); ++i)
        fatalIf(bins_[i] < other.bins_[i],
                "Histogram::subtract would go negative in bin ", i,
                " (0 = underflow, ", bins_.size() - 1, " = overflow)");
    count_ -= other.count_;
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] -= other.bins_[i];
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    double target = p * static_cast<double>(count_);
    double cum = static_cast<double>(underflow());
    if (target <= cum)
        return lo_;
    for (unsigned i = 0; i < numBuckets(); ++i) {
        double n = static_cast<double>(bins_[i + 1]);
        if (target <= cum + n && n > 0.0) {
            double frac = (target - cum) / n;
            double b_lo = bucketLo(i);
            double b_hi = bucketLo(i + 1);
            return b_lo + frac * (b_hi - b_lo);
        }
        cum += n;
    }
    return hi_;
}

double
Histogram::bucketLo(unsigned i) const
{
    if (i >= numBuckets())
        return hi_;
    return log_ ? lo_ * std::exp(logRatio_ * i) : lo_ + width_ * i;
}

std::string
Histogram::toString(const std::string &name) const
{
    std::ostringstream oss;
    oss << name << ": n=" << count_ << " under=" << underflow()
        << " over=" << overflow();
    for (unsigned i = 0; i < numBuckets(); ++i)
        oss << " [" << bucketLo(i) << ")=" << bucket(i);
    return oss.str();
}

void
CounterGroup::add(const std::string &key, Counter delta)
{
    auto [it, inserted] = index_.try_emplace(key, entries_.size());
    if (inserted)
        entries_.emplace_back(key, delta);
    else
        entries_[it->second].second += delta;
}

Counter
CounterGroup::get(const std::string &key) const
{
    auto it = index_.find(key);
    return it == index_.end() ? 0 : entries_[it->second].second;
}

void
CounterGroup::reset()
{
    index_.clear();
    entries_.clear();
}

} // namespace vmsim
