#include "atc/algorithm.h"

#include <algorithm>
#include <cassert>

namespace atcsim::atc {

using sim::SimTime;

SimTime compute_time_slice(const AtcConfig& cfg, SimTime default_slice,
                           const PeriodSample& p3, const PeriodSample& p2,
                           const PeriodSample& p1) {
  SimTime ts = p1.time_slice;

  // Lines 1-11: shorten on a rising latency trend, or when a three-period
  // falling trend is attributable to a slice decrease (keep pushing down).
  const bool rising = p2.spin_latency < p1.spin_latency;
  const bool falling_by_slice = p3.spin_latency > p2.spin_latency &&
                                p2.spin_latency > p1.spin_latency &&
                                p2.time_slice > p1.time_slice;
  if (rising || falling_by_slice) {
    if (p1.time_slice > cfg.alpha &&
        p1.time_slice - cfg.alpha >= cfg.min_threshold) {
      ts = p1.time_slice - cfg.alpha;
    } else if (p1.time_slice > cfg.beta &&
               p1.time_slice - cfg.beta >= cfg.min_threshold) {
      ts = p1.time_slice - cfg.beta;
    } else {
      ts = p1.time_slice;
    }
  }

  // Lines 12-20: no synchronization observed for three periods — the VM is
  // in a compute phase (or not parallel after all); relax toward DEFAULT to
  // shed context-switch overhead.  Mirror of the shorten branch: a full
  // alpha step when it fits under DEFAULT, else a fine beta step, else snap
  // to DEFAULT.  (The guards must be tried in this order: testing
  // `> default - alpha` first makes the beta branch unreachable, since its
  // negation is exactly `+ alpha <= default`.)
  if (p3.spin_latency == 0 && p2.spin_latency == 0 && p1.spin_latency == 0) {
    if (p1.time_slice + cfg.alpha <= default_slice) {
      ts = p1.time_slice + cfg.alpha;
    } else if (p1.time_slice + cfg.beta <= default_slice) {
      ts = p1.time_slice + cfg.beta;
    } else {
      ts = default_slice;
    }
  }

  return std::clamp(ts, cfg.min_threshold, default_slice);
}

SimTime compute_time_slice(const AtcConfig& cfg, SimTime default_slice,
                           const PeriodHistory& history) {
  assert(history.full());
  return compute_time_slice(cfg, default_slice, history.back(3),
                            history.back(2), history.back(1));
}

}  // namespace atcsim::atc
