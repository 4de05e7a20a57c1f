// Scheduling-approach factory: wires schedulers + adaptive controllers.
//
// The paper compares CR (Xen credit), CS (dynamic co-scheduling), BS
// (balance scheduling), DSS (dynamic switching-frequency scaling), VS
// (vSlicer) and ATC.  All are credit-based; they differ in placement, gang
// dispatch, and how per-VM time slices are driven.  On top of these, kPM
// adds the cluster control plane's contention-aware placement management
// (live migration driven by LLC pressure), and kATCPM stacks it on ATC's
// time-slice control — the temporal and spatial knobs combined.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "atc/config.h"
#include "atc/controller.h"
#include "sched/dss.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"

namespace atcsim::cluster {

namespace control {
class ClusterRebalancer;
}  // namespace control

enum class Approach { kCR, kCS, kBS, kDSS, kVS, kATC, kPM, kATCPM };

/// Display name of an approach.  Aborts on an out-of-range value (a fuzzed
/// or corrupted config must fail loudly, not silently report "?").
std::string approach_name(Approach a);
const std::vector<Approach>& all_approaches();

/// Owns everything install_approach wires up for one platform: the
/// adaptive controllers and — crucially — the RAII
/// monitor subscriptions of every periodic hook.  Destroying the runtime
/// (e.g. re-installing a different approach) unsubscribes the old
/// callbacks instead of leaving dangling raw pointers registered with the
/// monitor.
struct ApproachRuntime {
  ApproachRuntime();
  ApproachRuntime(ApproachRuntime&&) noexcept;
  ApproachRuntime& operator=(ApproachRuntime&&) noexcept;
  ~ApproachRuntime();

  std::vector<std::unique_ptr<atc::AtcController>> atc_controllers;
  std::vector<std::unique_ptr<sched::DssController>> dss_controllers;
  /// Monitor subscriptions owned by this runtime (CS gang trigger, DSS and
  /// ATC period hooks); torn down with the runtime.
  std::vector<sync::PeriodMonitor::Subscription> subscriptions;
  /// Installed by Scenario::start() for kPM / kATCPM once the migration
  /// context (directory, fabric, shard map) exists; the factory alone
  /// cannot build it.
  std::unique_ptr<control::ClusterRebalancer> rebalancer;
};

/// Installs the scheduler on every node and subscribes any controllers to
/// the monitor.  VMs must already exist; call before Engine::start().
ApproachRuntime install_approach(virt::Platform& platform,
                                 sync::PeriodMonitor& monitor, Approach a,
                                 const atc::AtcConfig& atc_cfg = {});

}  // namespace atcsim::cluster
