// Algorithm 2 of the paper: the per-node ATC controller.
//
// At the start of every VMM scheduling period the controller
//  1. computes a candidate slice for each VM running a parallel application
//     (Algorithm 1, from that VM's spinlock-latency history),
//  2. assigns the *minimum* candidate to every parallel VM on the node
//     (uniform short slice: a long-slice VM ahead in the run queue would
//     inflate everyone's spin latency), and
//  3. sets non-parallel VMs to the administrator-specified slice when one
//     exists, otherwise the VMM default (so they are unaffected).
// Complexity is O(N) in the number of VMs, as in the paper.
#pragma once

#include <memory>
#include <vector>

#include "atc/algorithm.h"
#include "atc/classifier.h"
#include "atc/config.h"
#include "sync/period_monitor.h"
#include "virt/node.h"

namespace atcsim::atc {

class AtcController {
 public:
  /// adaptive_nonparallel: wake-ups per second above which a non-parallel
  /// VM counts as latency-sensitive, and the slice such a VM gets.
  static constexpr double kLatencySensitiveWakeupsHz = 30.0;
  static constexpr sim::SimTime kLatencySensitiveSlice =
      5 * sim::kMillisecond;

  AtcController(virt::Node& node, const sync::PeriodMonitor& monitor,
                AtcConfig cfg = {});

  /// Period hook: runs Algorithm 2 on the monitor's fresh snapshot.
  void on_period();

  const AtcConfig& config() const { return cfg_; }

  /// Whether the controller currently treats `vm` as parallel (admin
  /// declaration, or the classifier's label when auto_classify is on).
  bool treats_as_parallel(const virt::Vm& vm) const;

 private:
  virt::Node* node_;
  const sync::PeriodMonitor* monitor_;
  AtcConfig cfg_;
  std::vector<PeriodHistory> history_;    // by VM index within the node
  std::vector<double> wakeup_rate_;       // EWMA, by VM index within node
  std::unique_ptr<VmClassifier> classifier_;  // when auto_classify
};

}  // namespace atcsim::atc
