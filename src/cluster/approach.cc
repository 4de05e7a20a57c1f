#include "cluster/approach.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "cluster/control/rebalancer.h"
#include "sched/coschedule.h"
#include "sched/credit.h"
#include "sched/vslicer.h"

namespace atcsim::cluster {

// Out-of-line: ApproachRuntime holds a unique_ptr to the forward-declared
// rebalancer, so its special members need the complete type.
ApproachRuntime::ApproachRuntime() = default;
ApproachRuntime::ApproachRuntime(ApproachRuntime&&) noexcept = default;
ApproachRuntime& ApproachRuntime::operator=(ApproachRuntime&&) noexcept =
    default;
ApproachRuntime::~ApproachRuntime() = default;

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

ApproachRuntime install_approach(virt::Platform& platform,
                                 sync::PeriodMonitor& monitor, Approach a,
                                 const atc::AtcConfig& atc_cfg) {
  ApproachRuntime runtime;
  for (auto& node : platform.nodes()) {
    switch (a) {
      case Approach::kCR:
      case Approach::kATC:
      case Approach::kDSS:
      case Approach::kPM:
      case Approach::kATCPM:
        platform.set_scheduler(node->id(),
                               std::make_unique<sched::CreditScheduler>());
        break;
      case Approach::kBS: {
        sched::CreditScheduler::Options opts;
        opts.placement = sched::Placement::kBalance;
        platform.set_scheduler(
            node->id(), std::make_unique<sched::CreditScheduler>(opts));
        break;
      }
      case Approach::kCS: {
        auto cs = std::make_unique<sched::CoScheduler>();
        sched::CoScheduler* raw = cs.get();
        platform.set_scheduler(node->id(), std::move(cs));
        runtime.subscriptions.push_back(
            monitor.subscribe([raw, &monitor](std::uint64_t) {
              raw->update_gang_flags(monitor);
            }));
        break;
      }
      case Approach::kVS:
        platform.set_scheduler(node->id(),
                               std::make_unique<sched::VSlicerScheduler>());
        break;
    }
    if (a == Approach::kDSS) {
      runtime.dss_controllers.push_back(
          std::make_unique<sched::DssController>(*node, monitor));
      sched::DssController* raw = runtime.dss_controllers.back().get();
      runtime.subscriptions.push_back(
          monitor.subscribe([raw](std::uint64_t) { raw->on_period(); }));
    }
  }
  if (a == Approach::kATC || a == Approach::kATCPM) {
    runtime.atc_controllers =
        atc::install_atc(platform, monitor, atc_cfg, runtime.subscriptions);
  }
  return runtime;
}

}  // namespace atcsim::cluster
