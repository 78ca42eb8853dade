// Log-2 bucketed latency histogram, used for the upcall-latency report
// (event queued in the kernel → upcall dispatched on a processor) and for
// per-tenant request-sojourn accounting (src/traffic/).
// Header-only so kern/ can embed one without linking anything extra.

#ifndef SA_TRACE_HISTOGRAM_H_
#define SA_TRACE_HISTOGRAM_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>

namespace sa::trace {

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Add(int64_t value) {
    if (value < 0) {
      value = 0;
    }
    const int b = BucketFor(value);
    if (buckets_[b] == 0) {
      bucket_min_[b] = value;
      bucket_max_[b] = value;
    } else {
      bucket_min_[b] = std::min(bucket_min_[b], value);
      bucket_max_[b] = std::max(bucket_max_[b], value);
    }
    ++buckets_[b];
    ++count_;
    AddToSum(value);
    if (count_ == 1 || value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
  }

  void Merge(const LatencyHistogram& other) {
    if (other.count_ == 0) {
      return;
    }
    for (int i = 0; i < kBuckets; ++i) {
      if (other.buckets_[i] == 0) {
        continue;
      }
      if (buckets_[i] == 0) {
        bucket_min_[i] = other.bucket_min_[i];
        bucket_max_[i] = other.bucket_max_[i];
      } else {
        bucket_min_[i] = std::min(bucket_min_[i], other.bucket_min_[i]);
        bucket_max_[i] = std::max(bucket_max_[i], other.bucket_max_[i]);
      }
      buckets_[i] += other.buckets_[i];
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
    count_ += other.count_;
    saturated_ |= other.saturated_;
    AddToSum(other.sum_);
  }

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  int64_t mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<int64_t>(count_);
  }
  // True once sum_ has saturated: mean() is then a lower bound, not an
  // average.  Reports must annotate such means instead of printing a
  // plausible-looking wrong number (RunReport does).
  bool saturated() const { return saturated_; }

  // q-th quantile (q in [0,1]), linearly interpolated within the bucket the
  // rank lands in.  The interpolation is count-weighted across the bucket's
  // *observed* value range [bucket min, bucket max] — a subrange of the
  // nominal [2^(b-1), 2^b) — so a bucket whose samples cluster away from its
  // boundaries does not drag the quantile toward a value nobody measured.
  // (The pre-interpolation code returned the bucket upper bound outright,
  // overstating p999 by up to 2x whenever the rank fell low in its bucket.)
  // Within-bucket sample placement is unknowable, so the estimate assumes
  // rank-uniformity over the observed range; exact percentiles need every
  // sample.
  int64_t Quantile(double q) const {
    if (count_ == 0) {
      return 0;
    }
    uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_));
    if (target >= count_) {
      target = count_ - 1;
    }
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      if (buckets_[i] == 0) {
        continue;
      }
      if (seen + buckets_[i] <= target) {
        seen += buckets_[i];
        continue;
      }
      const int64_t lo = bucket_min_[i];
      const int64_t hi = bucket_max_[i];
      if (hi <= lo) {
        return lo;
      }
      // 0-based rank within the bucket; the k-th of n samples sits at the
      // midpoint of its 1/n slice of the value range.
      const uint64_t idx = target - seen;
      const double frac = (static_cast<double>(idx) + 0.5) /
                          static_cast<double>(buckets_[i]);
      return lo + static_cast<int64_t>(frac * static_cast<double>(hi - lo));
    }
    return max_;
  }

  uint64_t bucket(int i) const { return buckets_[i]; }

 private:
  static int BucketFor(int64_t value) {
    if (value <= 0) {
      return 0;
    }
    int b = 0;
    uint64_t v = static_cast<uint64_t>(value);
    while (v >>= 1) {
      ++b;
    }
    return b + 1 < kBuckets ? b + 1 : kBuckets - 1;
  }

  // Saturating accumulate: a long run of large latencies must degrade the
  // mean gracefully, not wrap sum_ negative (signed overflow is UB).
  void AddToSum(int64_t value) {
    if (__builtin_add_overflow(sum_, value, &sum_)) {
      sum_ = std::numeric_limits<int64_t>::max();
      saturated_ = true;
    }
  }

  std::array<uint64_t, kBuckets> buckets_{};
  // Observed value range per occupied bucket (valid iff buckets_[i] > 0);
  // tightens Quantile's interpolation beyond the nominal log-2 bounds.
  std::array<int64_t, kBuckets> bucket_min_{};
  std::array<int64_t, kBuckets> bucket_max_{};
  uint64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;
  int64_t max_ = 0;
  bool saturated_ = false;
};

}  // namespace sa::trace

#endif  // SA_TRACE_HISTOGRAM_H_
