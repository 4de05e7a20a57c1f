// Algorithm 1 of the paper: per-VM time-slice computation from the spinlock
// latency history of the last three scheduling periods.
#pragma once

#include <array>

#include "atc/config.h"
#include "simcore/time.h"

namespace atcsim::atc {

/// One scheduling period's monitored state for a VM.
struct PeriodSample {
  sim::SimTime spin_latency = 0;  ///< average spinlock latency in the period
  sim::SimTime time_slice = 0;    ///< slice the VM ran with in the period
};

/// Ring of the three most recent period samples (i-3, i-2, i-1).
class PeriodHistory {
 public:
  void push(PeriodSample s) {
    ring_[next_] = s;
    next_ = (next_ + 1) % 3;
    if (filled_ < 3) ++filled_;
  }
  bool full() const { return filled_ == 3; }
  /// k = 1..3: the sample from the (i-k)-th period.
  const PeriodSample& back(int k) const {
    return ring_[(next_ + 3 - k) % 3];
  }

 private:
  std::array<PeriodSample, 3> ring_{};
  int next_ = 0;
  int filled_ = 0;
};

/// Computes the slice for the coming period (Algorithm 1); DEFAULT is
/// `default_slice`, the platform's default time slice.
///
/// Shorten (by alpha, falling back to beta near the threshold) when the
/// latency is rising, or when it has been falling for three periods *because*
/// the slice was shortened (reinforce the trend).  When the VM has not
/// spun at all for three periods, relax the slice back toward DEFAULT
/// (symmetrically: by alpha, falling back to beta just under DEFAULT).
/// The published pseudo-code has two evident typos which we fix (the beta
/// branch must test `- beta >= minThreshold`, and the growth branch caps at
/// DEFAULT); see DESIGN.md "Algorithm 1 reconstruction".
sim::SimTime compute_time_slice(const AtcConfig& cfg,
                                sim::SimTime default_slice,
                                const PeriodSample& p3, const PeriodSample& p2,
                                const PeriodSample& p1);

/// Convenience overload over a full history (p3 = back(3) ... p1 = back(1)).
sim::SimTime compute_time_slice(const AtcConfig& cfg,
                                sim::SimTime default_slice,
                                const PeriodHistory& history);

}  // namespace atcsim::atc
