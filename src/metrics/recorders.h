// Experiment measurement: named recorders for durations, latencies and
// throughput counters, with warmup support (reset after convergence).
//
// Recorders are bounded: samples land in a log-linear histogram (and an
// OnlineStats for the exact moments), never in an unbounded vector, so a
// week-long simulated run records in O(1) memory.  A recorder's footprint
// follows the octaves it records: building one makes one ~4 KiB allocation
// with room for 8 octaves, and record() touches the allocator only on the
// first sample of a 9th or later distinct octave, once per octave — so a
// warmed-up recorder keeps the steady-state zero-allocation contract
// (DESIGN.md §9).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simcore/simulation.h"
#include "simcore/stats.h"
#include "simcore/time.h"

namespace atcsim::metrics {

/// Log-linear histogram over positive seconds (HDR-style): each
/// power-of-two octave is split into kSubBuckets linear buckets, so the
/// relative bucket width is 1/kSubBuckets / (2*mantissa) — at 64 sub-buckets
/// a quantile's representative (bucket midpoint) is within ±0.79% of the
/// true sample value (see EXPERIMENTS.md "Percentile quantization").
/// Buckets cover 2^-40 s (~1 ps) to 2^24 s (~194 days); out-of-range
/// samples land in underflow/overflow counters so totals stay exact.
///
/// Storage follows the octaves recorded: a one-byte directory maps each
/// octave to a 512 B block of its kSubBuckets counters, taken when the
/// octave sees its first sample.  Construction reserves kReservedOctaves
/// blocks in one ~4 KiB allocation, so add() touches the allocator only
/// when a recorder spans more octaves than that (once per further octave);
/// reset() zeroes the blocks and keeps them.  In the 512-host mixed cell
/// recorders span 1-9 octaves (DESIGN.md §9 "Histogram recorders").
class LogHistogram {
 public:
  static constexpr int kSubBuckets = 64;  ///< per octave
  static constexpr int kMinExp = -40;     ///< smallest octave: [2^-41, 2^-40)
  static constexpr int kMaxExp = 24;      ///< values >= 2^24 s overflow
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  LogHistogram() { blocks_.reserve(kReservedOctaves); }

  void add(double v) {
    ++total_;
    const std::size_t i = index_of(v);
    if (i == 0) {
      ++underflow_;
    } else if (i == kBuckets - 1) {
      ++overflow_;
    } else {
      const std::size_t k = i - 1;
      ++block(k / kSubBuckets)[k % kSubBuckets];
    }
  }
  void reset() {
    for (Block& b : blocks_) b.fill(0);
    underflow_ = 0;
    overflow_ = 0;
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
    // Bucket order: underflow, the present octaves ascending, overflow.  An
    // absent octave's buckets hold no sample, so skipping them finds the
    // same bucket as a walk over every bucket.
    std::uint64_t cum = underflow_;
    if (cum > rank) return midpoint(0);
    for (std::size_t octave = 0; octave < kOctaves; ++octave) {
      if (dir_[octave] == 0) continue;
      const Block& b = blocks_[dir_[octave] - 1u];
      for (std::size_t sub = 0; sub < b.size(); ++sub) {
        cum += b[sub];
        if (cum > rank) return midpoint(1 + octave * kSubBuckets + sub);
      }
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr std::size_t kOctaves =
      static_cast<std::size_t>(kMaxExp - kMinExp);
  /// Octave blocks reserved at construction.
  static constexpr std::size_t kReservedOctaves = 8;
  using Block = std::array<std::uint64_t, kSubBuckets>;

  /// The counters of `octave`, taking the next block on its first sample.
  Block& block(std::size_t octave) {
    std::uint8_t& slot = dir_[octave];
    if (slot == 0) {
      // Past the reservation, grow by exactly one block.
      if (blocks_.size() == blocks_.capacity()) {
        blocks_.reserve(blocks_.size() + 1);
      }
      blocks_.emplace_back();  // zero-filled
      slot = static_cast<std::uint8_t>(blocks_.size());
    }
    return blocks_[slot - 1u];
  }

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

  /// Octave -> 1 + its index in blocks_; 0 while the octave is empty.
  std::array<std::uint8_t, kOctaves> dir_{};
  std::vector<Block> blocks_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Durations of repeated units of work (supersteps of a parallel
/// application) and request/response latencies (ping RTT, web
/// response time).  Mean duration is the "execution time" that the paper's
/// normalized numbers are built from.  count/mean/min/max are exact
/// (OnlineStats); tail percentiles come from the log-linear histogram
/// (±0.79% quantization).
class DurationRecorder {
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
  const sim::OnlineStats& stats() const { return stats_; }
  const LogHistogram& histogram() const { return hist_; }
  double mean_seconds() const { return stats_.mean(); }
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
  double p95_seconds() const { return quantile_seconds(0.95); }
  double p99_seconds() const { return quantile_seconds(0.99); }

 private:
  sim::OnlineStats stats_;
  LogHistogram hist_;
};

/// Monotone work counter (compute chunks, bytes) turned into a rate against
/// simulated time; reset() re-baselines for warmup exclusion.
class RateCounter {
 public:
  explicit RateCounter(sim::Simulation& s) : sim_(&s) {}
  void add(double units) { units_ += units; }
  void reset() {
    units_ = 0.0;
    since_ = sim_->now();
  }
  double units() const { return units_; }
  double per_second() const {
    const sim::SimTime span = sim_->now() - since_;
    if (span <= 0) return 0.0;
    return units_ / sim::to_seconds(span);
  }

 private:
  sim::Simulation* sim_;
  double units_ = 0.0;
  sim::SimTime since_ = 0;
};

/// Named registry owning all recorders of one simulation run.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(sim::Simulation& s) : sim_(&s) {}

  DurationRecorder& durations(const std::string& name) {
    return durations_[name];
  }
  DurationRecorder& latency(const std::string& name) {
    return latency_[name];
  }
  RateCounter& rate(const std::string& name) {
    auto it = rates_.find(name);
    if (it == rates_.end()) {
      it = rates_.emplace(name, RateCounter(*sim_)).first;
    }
    return it->second;
  }

  /// Readers: the named recorder, or nullptr when none was created.  They
  /// never create one, so a reader's unknown key leaves the registry as it
  /// was.
  const DurationRecorder* find_durations(const std::string& name) const {
    return find(durations_, name);
  }
  const DurationRecorder* find_latency(const std::string& name) const {
    return find(latency_, name);
  }

  bool has_durations(const std::string& name) const {
    return find_durations(name) != nullptr;
  }

  /// Clears all samples / re-baselines all rates (end of warmup).
  void reset_all() {
    for (auto& [name, r] : durations_) r.reset();
    for (auto& [name, r] : latency_) r.reset();
    for (auto& [name, r] : rates_) r.reset();
  }

  const std::map<std::string, RateCounter>& all_rates() const {
    return rates_;
  }
  const std::map<std::string, DurationRecorder>& all_latencies() const {
    return latency_;
  }

 private:
  static const DurationRecorder* find(
      const std::map<std::string, DurationRecorder>& recorders,
      const std::string& name) {
    const auto it = recorders.find(name);
    return it == recorders.end() ? nullptr : &it->second;
  }

  sim::Simulation* sim_;
  std::map<std::string, DurationRecorder> durations_;
  std::map<std::string, DurationRecorder> latency_;
  std::map<std::string, RateCounter> rates_;
};

}  // namespace atcsim::metrics
