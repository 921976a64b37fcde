#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace smtdram
{

Histogram::Histogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0),
      raw_(rawCap_, 0)
{
    panic_if(bounds_.empty(), "Histogram needs at least one bound");
    for (size_t i = 1; i < bounds_.size(); ++i) {
        panic_if(bounds_[i] <= bounds_[i - 1],
                 "Histogram bounds must be strictly increasing");
    }
}

void
Histogram::sample(std::uint64_t v)
{
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    ++counts_[i];
    ++total_;
    if (v < raw_.size())
        ++raw_[v];
}

void
Histogram::sample(std::uint64_t v, std::uint64_t count)
{
    if (count == 0)
        return;
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i])
        ++i;
    counts_[i] += count;
    total_ += count;
    if (v < raw_.size())
        raw_[v] += count;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    std::fill(raw_.begin(), raw_.end(), 0);
    total_ = 0;
}

double
Histogram::bucketFraction(size_t i) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(counts_.at(i)) / total_;
}

std::string
Histogram::bucketLabel(size_t i) const
{
    char buf[48];
    if (i == bounds_.size()) {
        std::snprintf(buf, sizeof(buf), ">%llu",
                      (unsigned long long)bounds_.back());
    } else {
        const std::uint64_t hi = bounds_[i];
        const std::uint64_t lo = (i == 0) ? 0 : bounds_[i - 1] + 1;
        if (lo == hi) {
            std::snprintf(buf, sizeof(buf), "%llu",
                          (unsigned long long)hi);
        } else {
            std::snprintf(buf, sizeof(buf), "%llu-%llu",
                          (unsigned long long)lo, (unsigned long long)hi);
        }
    }
    return buf;
}

// --------------------------------------------------------------------
// LogHistogram
// --------------------------------------------------------------------

namespace
{

/** floor(log2(v)) for v >= 1. */
inline unsigned
floorLog2(std::uint64_t v)
{
    unsigned o = 0;
    while (v >>= 1)
        ++o;
    return o;
}

} // namespace

LogHistogram::LogHistogram()
    // 32 exact slots + 4 sub-buckets for each octave 2^5 .. 2^63.
    : counts_(kLinearMax + (64 - kFirstOctave) * kSubBuckets, 0)
{
}

size_t
LogHistogram::bucketIndex(std::uint64_t v)
{
    if (v < kLinearMax)
        return static_cast<size_t>(v);
    const unsigned octave = floorLog2(v);
    const unsigned sub =
        static_cast<unsigned>((v >> (octave - 2)) & (kSubBuckets - 1));
    return kLinearMax + (octave - kFirstOctave) * kSubBuckets + sub;
}

std::uint64_t
LogHistogram::bucketLowerBound(size_t i)
{
    if (i < kLinearMax)
        return i;
    const size_t rel = i - kLinearMax;
    const unsigned octave =
        kFirstOctave + static_cast<unsigned>(rel / kSubBuckets);
    const unsigned sub = static_cast<unsigned>(rel % kSubBuckets);
    return (std::uint64_t{1} << octave) +
           (std::uint64_t{sub} << (octave - 2));
}

void
LogHistogram::sample(std::uint64_t v)
{
    ++counts_[bucketIndex(v)];
    ++total_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
LogHistogram::reset()
{
    *this = LogHistogram();
}

double
LogHistogram::percentile(double p) const
{
    if (total_ == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // 1-based rank of the target sample; p=100 is the last sample.
    const auto target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        const std::uint64_t in_bucket = counts_[i];
        if (in_bucket == 0 || seen + in_bucket < target) {
            seen += in_bucket;
            continue;
        }
        const std::uint64_t lo = bucketLowerBound(i);
        const std::uint64_t hi =
            (i + 1 < counts_.size()) ? bucketLowerBound(i + 1)
                                     : max_ + 1;
        if (hi - lo <= 1)
            return static_cast<double>(lo);  // exact bucket
        // Interpolate within [lo, hi) by the fraction of the bucket's
        // samples at or below the target rank.
        const double frac = static_cast<double>(target - seen) /
                            static_cast<double>(in_bucket);
        double v = static_cast<double>(lo) +
                   frac * static_cast<double>(hi - lo);
        v = std::min(v, static_cast<double>(max_));
        v = std::max(v, static_cast<double>(min_));
        return v;
    }
    return static_cast<double>(max_);
}

double
Histogram::fractionAbove(std::uint64_t threshold) const
{
    if (total_ == 0)
        return 0.0;
    std::uint64_t above = 0;
    // Exact accounting for values we tracked raw; bucketed tail is
    // handled by summing whole buckets beyond the threshold.
    for (std::uint64_t v = threshold + 1; v < raw_.size(); ++v)
        above += raw_[v];
    // Values >= rawCap_ are certainly above any threshold < rawCap_.
    std::uint64_t raw_total = 0;
    for (auto c : raw_)
        raw_total += c;
    above += total_ - raw_total;
    return static_cast<double>(above) / total_;
}

} // namespace smtdram
