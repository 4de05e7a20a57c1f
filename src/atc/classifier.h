// Non-intrusive workload classification (the paper's Sec. VI future work).
//
// The published prototype requires the administrator to declare which VMs
// run parallel applications and monitors spinlock latency with an intrusive
// guest-kernel patch.  This classifier removes the declaration: it watches
// the VMM-visible per-period signals the monitor already collects — the
// fraction of a VM's CPU time spent busy-waiting, and its spin-episode rate
// — and labels a VM "parallel" when it sustains synchronization-dominated
// behaviour.  Hysteresis keeps labels stable across compute phases.
#pragma once

#include <cstdint>
#include <vector>

#include "sync/period_monitor.h"
#include "virt/node.h"

namespace atcsim::atc {

class VmClassifier {
 public:
  /// Spin-CPU share of run time above which a period looks parallel.
  static constexpr double kSpinFractionThreshold = 0.05;
  /// Minimum spin episodes per period (filters one-off waits).
  static constexpr std::uint64_t kMinEpisodes = 1;
  /// Consecutive qualifying periods before a VM is labelled parallel.
  static constexpr int kOnPeriods = 2;
  /// Consecutive idle periods (no spinning) before the label is dropped
  /// (long compute phases must not flip the label; Algorithm 1's
  /// zero-latency branch already relaxes the slice meanwhile).
  static constexpr int kOffPeriods = 20;
  static_assert(kOffPeriods > kOnPeriods, "labels are sticky by design");

  VmClassifier(virt::Node& node, const sync::PeriodMonitor& monitor);

  /// Period hook: updates labels from the last monitor snapshot.
  void on_period();

  /// Current label for a VM hosted on this node (by node-local index).
  bool is_parallel(const virt::Vm& vm) const;

 private:
  struct State {
    int hot_streak = 0;
    int cold_streak = 0;
    bool parallel = false;
  };

  virt::Node* node_;
  const sync::PeriodMonitor* monitor_;
  std::vector<State> state_;  // by VM index within the node
};

}  // namespace atcsim::atc
