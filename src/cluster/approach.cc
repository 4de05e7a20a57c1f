#include "cluster/approach.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sched/credit.h"
#include "sched/vslicer.h"

namespace atcsim::cluster {

std::string approach_name(Approach a) {
  switch (a) {
    case Approach::kCR:
      return "CR";
    case Approach::kCS:
      return "CS";
    case Approach::kBS:
      return "BS";
    case Approach::kDSS:
      return "DSS";
    case Approach::kVS:
      return "VS";
    case Approach::kATC:
      return "ATC";
    case Approach::kPM:
      return "PM";
    case Approach::kATCPM:
      return "ATC+PM";
  }
  // Out-of-range values come from corrupted or fuzzed configs; report the
  // raw value and fail loudly instead of silently labelling results "?".
  std::fprintf(stderr, "approach_name: invalid Approach value %d\n",
               static_cast<int>(a));
  std::abort();
}

const std::vector<Approach>& all_approaches() {
  static const std::vector<Approach> all = {
      Approach::kCR, Approach::kCS,  Approach::kBS,  Approach::kDSS,
      Approach::kVS, Approach::kATC, Approach::kPM,  Approach::kATCPM};
  return all;
}

void ApproachRuntime::on_period() {
  for (sched::CoScheduler* cs : coschedulers) cs->on_period();
  for (auto& dss : dss_controllers) dss->on_period();
  for (auto& atc : atc_controllers) atc->on_period();
  if (rebalancer != nullptr) rebalancer->on_period();
}

ApproachRuntime install_approach(virt::Platform& platform,
                                 const sync::PeriodMonitor& monitor,
                                 control::Migrator& migrator, Approach a,
                                 const atc::AtcConfig& atc_cfg) {
  ApproachRuntime runtime;
  for (auto& node : platform.nodes()) {
    switch (a) {
      case Approach::kCR:
      case Approach::kATC:
      case Approach::kDSS:
      case Approach::kPM:
      case Approach::kATCPM:
        platform.make_scheduler<sched::CreditScheduler>(node->id());
        break;
      case Approach::kBS: {
        sched::CreditScheduler::Options opts;
        opts.placement = sched::Placement::kBalance;
        platform.make_scheduler<sched::CreditScheduler>(node->id(), opts);
        break;
      }
      case Approach::kCS:
        runtime.coschedulers.push_back(
            &platform.make_scheduler<sched::CoScheduler>(node->id(), monitor));
        break;
      case Approach::kVS:
        platform.make_scheduler<sched::VSlicerScheduler>(node->id());
        break;
    }
    if (a == Approach::kDSS) {
      runtime.dss_controllers.push_back(
          std::make_unique<sched::DssController>(*node, monitor));
    }
  }
  if (a == Approach::kATC || a == Approach::kATCPM) {
    runtime.atc_controllers.reserve(platform.nodes().size());
    for (auto& node : platform.nodes()) {
      runtime.atc_controllers.push_back(
          std::make_unique<atc::AtcController>(*node, monitor, atc_cfg));
    }
  }
  if (a == Approach::kPM || a == Approach::kATCPM) {
    // Policy is cell-local: each shard balances its own node block.
    runtime.rebalancer =
        std::make_unique<control::ClusterRebalancer>(platform, migrator);
  }
  return runtime;
}

}  // namespace atcsim::cluster
