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
  // Visit only VMs with activity since the last boundary (the platform's
  // period-activity ring), not every id slot: a mostly-idle cluster pays
  // O(active) per period.  The ring is swapped into a retained scratch
  // buffer, so marking during the sweep (the in-flight re-mark below)
  // enrolls into the *next* period's ring.
  ring_scratch_.clear();
  platform_->period_dirty_ring().swap(ring_scratch_);
  // VMs sampled last period but untouched since must read as idle again;
  // their accumulators are already zero (reset below happened last sweep),
  // so only the snapshot needs clearing.  Expelled ids are skipped — a
  // tombstone keeps its final snapshot, exactly as the full walk did.
  for (const virt::VmId id : prev_active_) {
    virt::Vm* vmp = platform_->vm_ptr(id);
    if (vmp != nullptr && !vmp->period_dirty()) {
      last_[static_cast<std::size_t>(id.index())] = {};
    }
  }
  prev_active_.clear();
  for (const virt::VmId id : ring_scratch_) {
    virt::Vm* vmp = platform_->vm_ptr(id);
    if (vmp == nullptr) continue;  // expelled (migrated away) after marking
    virt::Vm& vm = *vmp;
    vm.set_period_dirty(false);
    virt::Vm::PeriodStats snap = vm.period();
    // Fold in spins that have not finished yet: a VM whose VCPUs are stuck
    // mid-episode must not look idle to the controller.  The folded segment
    // is consumed here — advance the episode's start mark so that
    // Engine::end_spin_episode charges only the post-boundary remainder to
    // the next period, and credit the segment to the lifetime totals now
    // (end_spin_episode will no longer see it).  Without the advance the
    // pre-boundary wall time was double-counted: once in this snapshot and
    // again in full in the period where the episode ended.
    bool spinning = false;
    for (virt::Vcpu& v : vm.vcpus()) {
      if (v.eng().in_spin_episode) {
        const SimTime segment = now - v.eng().spin_episode_start;
        snap.spin_wall += segment;
        snap.spin_episodes += 1;
        vm.totals().spin_wall += segment;
        v.eng().spin_episode_start = now;
        spinning = true;
      }
    }
    last_[static_cast<std::size_t>(id.index())] = snap;
    vm.period().reset();
    prev_active_.push_back(id);
    // A still-running episode keeps accruing into the next period; re-mark
    // so the next sweep folds its post-boundary segment too.
    if (spinning) platform_->mark_period_activity(vm);
  }
  ++periods_;
}

sim::SimTime PeriodMonitor::avg_spin_latency(virt::VmId id) const {
  const auto& s = last(id);
  if (s.spin_episodes == 0) return 0;
  return s.spin_wall / static_cast<SimTime>(s.spin_episodes);
}

}  // namespace atcsim::sync
