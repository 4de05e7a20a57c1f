// Reference histogram: the dense log-linear LogHistogram, preserved
// verbatim from before its counts were stored per octave — one array of
// every bucket, zero-filled at construction, walked bucket by bucket — but
// for the +inf guard in index_of, which both classes took together: frexp
// leaves the exponent of an infinity unspecified (glibc stores 0), and the
// sub-bucket cast of an infinite mantissa then indexed far past the array.
//
// The executable specification of metrics::LogHistogram: metrics_test.cc
// feeds both the same seeded sample streams and asserts equal totals and
// bit-equal quantiles, directly and through DurationRecorder.  It lives
// with the tests so no recorder can use it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "simcore/stats.h"
#include "simcore/time.h"

namespace atcsim::metrics {

/// LogHistogram's bucket layout over one dense array of kBuckets counters.
class DenseLogHistogram {
 public:
  static constexpr int kSubBuckets = 64;  ///< per octave
  static constexpr int kMinExp = -40;     ///< smallest octave: [2^-41, 2^-40)
  static constexpr int kMaxExp = 24;      ///< values >= 2^24 s overflow
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  DenseLogHistogram() : counts_(kBuckets, 0) {}

  void add(double v) {
    ++counts_[index_of(v)];
    ++total_;
  }
  void reset() {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
  }
  std::uint64_t total() const { return total_; }

  /// Nearest-rank quantile, q in [0, 1]; returns the midpoint of the bucket
  /// holding rank round(q * (total - 1)).  0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1) + 0.5);
    std::uint64_t cum = 0;
    std::size_t i = 0;
    for (;; ++i) {
      cum += counts_[i];
      if (cum > rank) break;
    }
    return midpoint(i);
  }

 private:
  static std::size_t index_of(double v) {
    if (!(v > 0.0)) return 0;  // zero / negative / NaN -> underflow
    if (std::isinf(v)) return kBuckets - 1;  // frexp leaves exp unspecified
    int exp = 0;
    const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
    if (exp <= kMinExp) return 0;
    if (exp > kMaxExp) return kBuckets - 1;
    const int sub = std::min(
        static_cast<int>((m - 0.5) * (2 * kSubBuckets)), kSubBuckets - 1);
    return 1 +
           static_cast<std::size_t>(exp - 1 - kMinExp) * kSubBuckets +
           static_cast<std::size_t>(sub);
  }

  static double midpoint(std::size_t i) {
    if (i == 0) return 0.0;  // underflow has no meaningful representative
    if (i == kBuckets - 1) return std::ldexp(1.0, kMaxExp);
    const std::size_t k = i - 1;
    const int exp = kMinExp + 1 + static_cast<int>(k / kSubBuckets);
    const double m =
        0.5 + (static_cast<double>(k % kSubBuckets) + 0.5) /
                  (2.0 * kSubBuckets);
    return std::ldexp(m, exp);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// DurationRecorder over the dense reference histogram.
class DenseDurationRecorder {
 public:
  void record(sim::SimTime d) {
    const double s = sim::to_seconds(d);
    stats_.add(s);
    hist_.add(s);
  }
  void reset() {
    stats_.reset();
    hist_.reset();
  }
  std::uint64_t count() const { return stats_.count(); }

  /// Nearest-rank quantile, q in [0, 1]; 0 when empty.  Ranks that resolve
  /// to the first/last sample return the exact min/max; interior ranks are
  /// bucket midpoints.
  double quantile_seconds(double q) const {
    const std::uint64_t n = stats_.count();
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(n - 1) + 0.5);
    if (rank == 0) return stats_.min();
    if (rank == n - 1) return stats_.max();
    return hist_.quantile(q);
  }

 private:
  sim::OnlineStats stats_;
  DenseLogHistogram hist_;
};

}  // namespace atcsim::metrics
