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
#include "cluster/control/rebalancer.h"
#include "sched/coschedule.h"
#include "sched/dss.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"

namespace atcsim::cluster {

enum class Approach { kCR, kCS, kBS, kDSS, kVS, kATC, kPM, kATCPM };

/// Display name of an approach.  Aborts on an out-of-range value (a fuzzed
/// or corrupted config must fail loudly, not silently report "?").
std::string approach_name(Approach a);
const std::vector<Approach>& all_approaches();

/// The controllers install_approach builds for one platform, and the one
/// period hook that drives them.
struct ApproachRuntime {
  /// CS gang triggers; each scheduler is owned by its node.
  std::vector<sched::CoScheduler*> coschedulers;
  std::vector<std::unique_ptr<sched::DssController>> dss_controllers;
  std::vector<std::unique_ptr<atc::AtcController>> atc_controllers;
  /// Contention-aware placement under kPM and kATCPM; nullptr otherwise.
  std::unique_ptr<control::ClusterRebalancer> rebalancer;

  /// PeriodMonitor hook.  Runs every controller in a fixed order: the CS
  /// gang triggers, DSS controllers and ATC controllers, each in node
  /// order, then the rebalancer.
  void on_period();
};

/// Installs the approach's scheduler on every node and builds its
/// controllers: the one place that maps an approach to them.  VMs must
/// already exist; call before Engine::start(), and pass the runtime's
/// on_period to PeriodMonitor::start.
ApproachRuntime install_approach(virt::Platform& platform,
                                 const sync::PeriodMonitor& monitor,
                                 control::Migrator& migrator, Approach a,
                                 const atc::AtcConfig& atc_cfg);

}  // namespace atcsim::cluster
