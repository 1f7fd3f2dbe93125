/**
 * @file
 * A fixed-bucket histogram statistic (power-of-two buckets), used for
 * request and packet latency distributions.
 */

#ifndef VIP_SIM_HISTOGRAM_HH
#define VIP_SIM_HISTOGRAM_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <ostream>

namespace vip {

/** Histogram over log2 buckets: [0,1), [1,2), [2,4), ... [2^30, inf). */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 32;

    void
    sample(std::uint64_t v)
    {
        ++buckets_[std::min<unsigned>(std::bit_width(v), kBuckets - 1)];
        sum_ += v;
        ++count_;
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t max() const { return max_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /** Smallest bucket upper bound covering @p fraction of samples. */
    std::uint64_t
    percentileBound(double fraction) const
    {
        if (count_ == 0)
            return 0;
        const auto target = static_cast<std::uint64_t>(
            fraction * static_cast<double>(count_));
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            seen += buckets_[b];
            if (seen >= target)
                return 1ull << b;
        }
        return max_;
    }

    void
    reset()
    {
        buckets_.fill(0);
        sum_ = count_ = max_ = 0;
    }

    void
    dump(std::ostream &os, const char *name) const
    {
        os << name << ".count " << count_ << "\n"
           << name << ".mean " << mean() << "\n"
           << name << ".max " << max_ << "\n"
           << name << ".p99_bound " << percentileBound(0.99) << "\n";
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t sum_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace vip

#endif // VIP_SIM_HISTOGRAM_HH
