#include "sched/dss.h"

#include <algorithm>

#include "virt/platform.h"

namespace atcsim::sched {

using sim::SimTime;

DssController::DssController(virt::Node& node,
                             const sync::PeriodMonitor& monitor)
    : node_(&node), monitor_(&monitor),
      smoothed_rate_(node.vms().size(), 0.0) {}

void DssController::on_period() {
  const auto& mp = node_->platform().params();
  const double period_s = sim::to_seconds(mp.accounting_period);
  if (smoothed_rate_.size() < node_->vms().size()) {
    smoothed_rate_.resize(node_->vms().size(), 0.0);  // migration arrivals
  }
  for (std::size_t i = 0; i < node_->vms().size(); ++i) {
    if (node_->vms()[i] == nullptr) continue;  // migration tombstone
    virt::Vm& vm = *node_->vms()[i];
    if (vm.is_dom0()) continue;
    const double rate =
        static_cast<double>(monitor_->last(vm.id()).io_events) / period_s;
    smoothed_rate_[i] =
        kSmoothing * smoothed_rate_[i] + (1.0 - kSmoothing) * rate;
    SimTime slice = mp.default_time_slice;
    if (smoothed_rate_[i] >= kIdleRateHz) {
      slice = sim::from_millis(kRateConstantMsHz / smoothed_rate_[i]);
      slice = std::clamp(slice, kMinSlice, mp.default_time_slice);
    }
    vm.set_time_slice(slice);
  }
}

}  // namespace atcsim::sched
