#include "atc/classifier.h"

namespace atcsim::atc {

VmClassifier::VmClassifier(virt::Node& node,
                           const sync::PeriodMonitor& monitor)
    : node_(&node), monitor_(&monitor), state_(node.vms().size()) {}

void VmClassifier::on_period() {
  if (state_.size() < node_->vms().size()) {
    state_.resize(node_->vms().size());  // migration arrivals
  }
  for (std::size_t i = 0; i < node_->vms().size(); ++i) {
    if (node_->vms()[i] == nullptr) continue;  // migration tombstone
    const virt::Vm& vm = *node_->vms()[i];
    if (vm.is_dom0()) continue;
    const auto& snap = monitor_->last(vm.id());
    const double run = static_cast<double>(snap.run_time);
    const double spin_frac =
        run > 0.0 ? static_cast<double>(snap.spin_cpu) / run : 0.0;
    const bool hot = spin_frac >= kSpinFractionThreshold &&
                     snap.spin_episodes >= kMinEpisodes;
    State& st = state_[i];
    if (hot) {
      st.cold_streak = 0;
      if (++st.hot_streak >= kOnPeriods) st.parallel = true;
    } else {
      st.hot_streak = 0;
      if (++st.cold_streak >= kOffPeriods) st.parallel = false;
    }
  }
}

bool VmClassifier::is_parallel(const virt::Vm& vm) const {
  for (std::size_t i = 0; i < node_->vms().size(); ++i) {
    if (node_->vms()[i] == &vm) {
      return i < state_.size() ? state_[i].parallel : false;
    }
  }
  return false;
}

}  // namespace atcsim::atc
