#include "sync/period_monitor.h"

#include <cassert>
#include <utility>

namespace atcsim::sync {

using sim::SimTime;

PeriodMonitor::PeriodMonitor(virt::Platform& platform)
    : platform_(&platform) {}

PeriodMonitor::~PeriodMonitor() {
  if (started_) platform_->simulation().disarm(timer_);
}

void PeriodMonitor::start(std::function<void()> on_period) {
  assert(!started_);
  started_ = true;
  on_period_ = std::move(on_period);
  last_.assign(platform_->vm_count(), {});
  const SimTime period = platform_->params().accounting_period;
  timer_ = platform_->simulation().make_timer([this, period] {
    sample();
    if (on_period_) on_period_();
    platform_->simulation().arm_in(timer_, period);
  });
  platform_->simulation().arm_in(timer_, period);
}

void PeriodMonitor::sample() {
  const SimTime now = platform_->simulation().now();
  if (last_.size() < platform_->vm_count()) {
    last_.resize(platform_->vm_count());  // migration arrivals
  }
  // Every period consumer walks every resident VM anyway, so the sweep is a
  // plain walk too.  A VM with no activity since the last boundary snapshots
  // its all-zero accumulators.
  for (std::size_t i = 0; i < platform_->vm_count(); ++i) {
    virt::Vm* vmp =
        platform_->vm_ptr(virt::VmId{static_cast<std::int32_t>(i)});
    // A tombstone (migrated away) keeps its final snapshot.
    if (vmp == nullptr) continue;
    virt::Vm& vm = *vmp;
    virt::Vm::PeriodStats snap = vm.period();
    // Fold in spins that have not finished yet: a VM whose VCPUs are stuck
    // mid-episode must not look idle to the controller.  The folded segment
    // is consumed here — advance the episode's start mark so that
    // Engine::end_spin_episode charges only the post-boundary remainder to
    // the next period, and credit the segment to the lifetime totals now
    // (end_spin_episode will no longer see it).  Without the advance the
    // pre-boundary wall time was double-counted: once in this snapshot and
    // again in full in the period where the episode ended.
    for (virt::Vcpu& v : vm.vcpus()) {
      if (v.eng().in_spin_episode) {
        const SimTime segment = now - v.eng().spin_episode_start;
        snap.spin_wall += segment;
        snap.spin_episodes += 1;
        vm.totals().spin_wall += segment;
        v.eng().spin_episode_start = now;
      }
    }
    last_[i] = snap;
    vm.period().reset();
  }
  ++periods_;
}

sim::SimTime PeriodMonitor::avg_spin_latency(virt::VmId id) const {
  const auto& s = last(id);
  if (s.spin_episodes == 0) return 0;
  return s.spin_wall / static_cast<SimTime>(s.spin_episodes);
}

}  // namespace atcsim::sync
