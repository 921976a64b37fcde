/**
 * @file
 * Lightweight statistics primitives.
 *
 * Subsystems expose their measurements through these types rather than
 * bare counters so the benches can print uniformly and the tests can
 * assert on well-defined quantities.
 */

#ifndef SMTDRAM_COMMON_STATS_HH
#define SMTDRAM_COMMON_STATS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace smtdram
{

/**
 * Histogram over explicit integer bucket upper bounds.
 *
 * Built with the bucket boundaries used by the paper's figures, e.g.
 * {1, 4, 8, 16} yields buckets [0,1], [2,4], [5,8], [9,16], [17,inf).
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> upper_bounds);

    /** Record one observation of value @p v. */
    void sample(std::uint64_t v);

    /**
     * Record @p count observations of value @p v at once — the
     * interval-weighted form used by the event-driven kernel, which
     * accounts a whole skipped window of identical per-cycle samples
     * in one call.  Exactly equivalent to calling sample(v) @p count
     * times.
     */
    void sample(std::uint64_t v, std::uint64_t count);

    void reset();

    std::uint64_t total() const { return total_; }
    size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(size_t i) const { return counts_.at(i); }

    /** Fraction of samples in bucket @p i (0 if no samples). */
    double bucketFraction(size_t i) const;

    /** Human-readable bucket label, e.g. "2-4" or ">16". */
    std::string bucketLabel(size_t i) const;

    /** Fraction of samples strictly above @p threshold. */
    double fractionAbove(std::uint64_t threshold) const;

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 buckets
    std::vector<std::uint64_t> raw_;     // exact counts up to rawCap_
    static constexpr size_t rawCap_ = 129;
    std::uint64_t total_ = 0;
};

/**
 * Log-bucketed histogram with percentile queries.
 *
 * Values 0..31 are counted exactly; larger values fall into
 * power-of-two octaves split into four linear sub-buckets each
 * (HdrHistogram-style), so relative error is bounded by 1/4 of the
 * bucket width at any magnitude up to 2^63.  sample() is a handful of
 * bit operations and one array increment, cheap enough to leave on in
 * every build — the paper's latency/queue-depth figures are
 * distribution statements, and count/sum/min/max alone cannot answer
 * them.
 */
class LogHistogram
{
  public:
    LogHistogram();

    /** Record one observation of value @p v. */
    void sample(std::uint64_t v);

    /** Fold @p other into this histogram (exact union). */
    void merge(const LogHistogram &other);

    void reset();

    std::uint64_t total() const { return total_; }
    std::uint64_t min() const { return total_ ? min_ : 0; }
    std::uint64_t max() const { return total_ ? max_ : 0; }
    std::uint64_t sum() const { return sum_; }
    double mean() const
    {
        return total_ ? static_cast<double>(sum_) / total_ : 0.0;
    }

    /**
     * Value at percentile @p p in (0, 100]; linear interpolation
     * inside the containing bucket, clamped to the observed
     * [min, max].  Returns 0 on an empty histogram.
     */
    double percentile(double p) const;

    double p50() const { return percentile(50.0); }
    double p90() const { return percentile(90.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

    // --- bucket iteration (for exporters) --------------------------
    size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(size_t i) const { return counts_[i]; }
    /** Smallest value mapping to bucket @p i. */
    static std::uint64_t bucketLowerBound(size_t i);

    /** Bucket index a value falls into (exposed for tests). */
    static size_t bucketIndex(std::uint64_t v);

  private:
    static constexpr std::uint64_t kLinearMax = 32;  ///< exact 0..31
    static constexpr unsigned kSubBuckets = 4;
    static constexpr unsigned kFirstOctave = 5;      ///< 2^5 == 32

    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/** Hit/miss style ratio counter. */
class RatioStat
{
  public:
    void hit() { ++hits_; }
    void miss() { ++misses_; }

    void
    reset()
    {
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t total() const { return hits_ + misses_; }

    double
    missRate() const
    {
        const std::uint64_t t = total();
        return t ? static_cast<double>(misses_) / t : 0.0;
    }

    double hitRate() const { return total() ? 1.0 - missRate() : 0.0; }

  private:
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace smtdram

#endif // SMTDRAM_COMMON_STATS_HH
