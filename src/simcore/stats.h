// Online statistics used by monitors and experiment reporting.
#pragma once

#include <cstdint>
#include <limits>
#include <span>

namespace atcsim::sim {

/// Numerically stable running mean/variance (Welford) with min/max.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance; 0 when count < 2
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series is constant or sizes mismatch/empty.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Euclidean distance between two equal-length vectors (Eq. 1 of the paper).
double euclidean_distance(std::span<const double> a, std::span<const double> b);

}  // namespace atcsim::sim
