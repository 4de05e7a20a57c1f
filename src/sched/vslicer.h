// vSlicer (VS) [15]: differentiated-frequency CPU micro-slicing.
//
// Latency-sensitive VMs (LSVMs, designated by the administrator as in the
// vSlicer paper) are scheduled with a micro time slice — the same CPU share
// delivered in smaller, more frequent quanta — while latency-insensitive
// VMs keep the default slice.  In our reproduction network-driven VMs
// (web, ping, and the parallel VMs, which are dominated by message-driven
// phases) are designated latency-sensitive, which places the effective
// slice of parallel VMs between DSS's (shorter) and CR's (30 ms), matching
// the ordering the paper reports in Fig. 12.
#pragma once

#include "sched/credit.h"

namespace atcsim::sched {

class VSlicerScheduler : public CreditScheduler {
 public:
  /// Micro slice for LSVMs: default 30 ms / 6 = 5 ms as in vSlicer.
  static constexpr sim::SimTime kMicroSlice = 5 * sim::kMillisecond;

  sim::SimTime slice_for(const Vcpu& v) const override {
    if (v.vm().latency_sensitive()) return kMicroSlice;
    return CreditScheduler::slice_for(v);
  }
};

}  // namespace atcsim::sched
