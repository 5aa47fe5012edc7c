/**
 * @file
 * Lightweight statistics primitives.
 *
 * MLSim reports counts, means and distributions of message sizes and
 * communication distances (Section 5: "MLSim can calculate such
 * statistics as user time, idle time, communication overhead time,
 * transferred message size, communication distance, and the number of
 * communication events"). These accumulators are the building blocks.
 */

#ifndef AP_BASE_STATS_HH
#define AP_BASE_STATS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace ap
{

/** Scalar accumulator: count, sum, min, max, mean. */
class Accumulator
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        if (n == 0) {
            lo = v;
            hi = v;
        } else {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        total += v;
        ++n;
    }

    /** Number of samples recorded. */
    std::uint64_t count() const { return n; }
    /** Sum of all samples. */
    double sum() const { return total; }
    /** Smallest sample (0 when empty). */
    double min() const { return n ? lo : 0.0; }
    /** Largest sample (0 when empty). */
    double max() const { return n ? hi : 0.0; }

    /** Arithmetic mean (0 when empty). */
    double
    mean() const
    {
        return n ? total / static_cast<double>(n) : 0.0;
    }

    /** Merge another accumulator into this one. */
    void
    merge(const Accumulator &o)
    {
        if (o.n == 0)
            return;
        if (n == 0) {
            *this = o;
            return;
        }
        lo = std::min(lo, o.lo);
        hi = std::max(hi, o.hi);
        total += o.total;
        n += o.n;
    }

    /** Discard all samples. */
    void
    reset()
    {
        n = 0;
        total = 0.0;
        lo = 0.0;
        hi = 0.0;
    }

  private:
    std::uint64_t n = 0;
    double total = 0.0;
    double lo = 0.0;
    double hi = 0.0;
};

/**
 * Power-of-two bucketed histogram for sizes/distances. The counts
 * live in a flat array grown to the highest bucket sampled, so a
 * sample is a shift loop and an increment — no node allocation.
 */
class Histogram
{
  public:
    /** Record one non-negative sample. */
    void
    sample(std::uint64_t v)
    {
        acc.sample(static_cast<double>(v));
        auto b = static_cast<std::size_t>(bucket_of(v));
        if (b >= counts.size())
            counts.resize(b + 1);
        ++counts[b];
    }

    /** The underlying scalar accumulator. */
    const Accumulator &scalar() const { return acc; }

    /**
     * Per-bucket sample counts; bucket b covers [2^(b-1), 2^b) and
     * bucket 0 holds zeros. Sized to the highest bucket sampled
     * (empty before the first sample); lower buckets may read 0.
     */
    const std::vector<std::uint64_t> &buckets() const { return counts; }

    /** Merge another histogram into this one. */
    void
    merge(const Histogram &o)
    {
        acc.merge(o.acc);
        if (o.counts.size() > counts.size())
            counts.resize(o.counts.size());
        for (std::size_t b = 0; b < o.counts.size(); ++b)
            counts[b] += o.counts[b];
    }

    /** Bucket index for a value (0 -> bucket 0, else floor(log2)+1). */
    static int
    bucket_of(std::uint64_t v)
    {
        int b = 0;
        while (v) {
            v >>= 1;
            ++b;
        }
        return b;
    }

  private:
    Accumulator acc;
    std::vector<std::uint64_t> counts;
};

} // namespace ap

#endif // AP_BASE_STATS_HH
