// Dynamic Switching-frequency Scaling (DSS) [5].
//
// DSS sets the time slice of each VM *independently* from its observed I/O
// behaviour: I/O-intensive VMs get short slices (high switching frequency),
// CPU-bound VMs keep the default.  The controller runs on the period
// monitor and writes Vm::time_slice; scheduling itself is plain credit.
//
// Contrast with ATC: DSS infers from I/O rate (so a parallel VM in a compute
// phase looks latency-insensitive and keeps a long slice, and co-located
// long-slice VMs still inflate the spin latency of parallel VMs), whereas
// ATC measures spinlock latency directly and sets one minimum slice across
// all parallel VMs (Sec. IV-B discussion).
#pragma once

#include <vector>

#include "sync/period_monitor.h"
#include "virt/node.h"

namespace atcsim::sched {

class DssController {
 public:
  /// slice = clamp(kRateConstantMsHz / io_rate_hz, kMinSlice, default).
  /// 60 ms*Hz: 30 I/O events/s -> 2 ms slice, 10/s -> 6 ms.
  static constexpr double kRateConstantMsHz = 60.0;
  static constexpr sim::SimTime kMinSlice = 2 * sim::kMillisecond;
  /// Exponential smoothing factor for the rate estimate.  I/O arrives in
  /// bursts around synchronization points, so the horizon must span
  /// several scheduling periods (~0.9 -> ~10 periods = 300 ms).
  static constexpr double kSmoothing = 0.9;
  /// Below this rate a VM counts as I/O-idle and keeps the default slice.
  static constexpr double kIdleRateHz = 0.5;

  DssController(virt::Node& node, const sync::PeriodMonitor& monitor);

  /// Period hook: re-estimates I/O rates and rewrites VM slices.
  void on_period();

 private:
  virt::Node* node_;
  const sync::PeriodMonitor* monitor_;
  std::vector<double> smoothed_rate_;  // by VM index within the node
};

}  // namespace atcsim::sched
