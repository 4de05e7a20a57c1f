#include "sync/period_monitor.h"

#include <algorithm>
#include <cassert>

namespace atcsim::sync {

using sim::SimTime;

void PeriodMonitor::Subscription::reset() {
  if (id_ == 0) return;
  if (auto list = list_.lock()) list->detach(id_);
  list_.reset();
  id_ = 0;
}

void PeriodMonitor::SubscriberList::detach(std::uint64_t id) {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), id,
      [](const Entry& e, std::uint64_t v) { return e.id < v; });
  assert(it != entries.end() && it->id == id && it->live);
  it->live = false;
  it->cb = nullptr;  // release the captured state now
  --live;
  if (!sweeping) compact_if_sparse();
}

void PeriodMonitor::SubscriberList::compact_if_sparse() {
  if (entries.size() - live <= live) return;
  std::erase_if(entries, [](const Entry& e) { return !e.live; });
}

PeriodMonitor::PeriodMonitor(virt::Platform& platform)
    : platform_(&platform),
      subscribers_(std::make_shared<SubscriberList>()) {}

PeriodMonitor::~PeriodMonitor() { stop(); }

PeriodMonitor::Subscription PeriodMonitor::subscribe(Callback cb) {
  const std::uint64_t id = next_sub_id_++;
  subscribers_->entries.push_back(Entry{id, std::move(cb)});
  ++subscribers_->live;
  return Subscription{subscribers_, id};
}

void PeriodMonitor::start() {
  assert(!started_);
  started_ = true;
  last_.assign(platform_->vm_count(), {});
  const SimTime period = platform_->params().accounting_period;
  if (!timer_made_) {
    timer_ = platform_->simulation().make_timer([this, period] {
      sample();
      platform_->simulation().arm_in(timer_, period);
    });
    timer_made_ = true;
  }
  platform_->simulation().arm_in(timer_, period);
}

void PeriodMonitor::stop() {
  if (timer_made_) platform_->simulation().disarm(timer_);
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
  // Callbacks may subscribe/unsubscribe (or migrate VMs) from inside a
  // period.  Entries keep their index for the whole walk (compaction waits
  // for it to end); subscribers added by a callback join at the end and
  // first fire next period; detached ones are skipped.  Each callback runs
  // from a local, so neither a subscribe that reallocates the list nor a
  // self-detach can destroy it mid-call.
  SubscriberList& subs = *subscribers_;
  subs.sweeping = true;
  for (std::size_t i = 0, n = subs.entries.size(); i < n; ++i) {
    if (!subs.entries[i].live) continue;
    Callback cb = std::move(subs.entries[i].cb);
    cb(periods_);
    if (subs.entries[i].live) subs.entries[i].cb = std::move(cb);
  }
  subs.sweeping = false;
  subs.compact_if_sparse();
}

sim::SimTime PeriodMonitor::avg_spin_latency(virt::VmId id) const {
  const auto& s = last(id);
  if (s.spin_episodes == 0) return 0;
  return s.spin_wall / static_cast<SimTime>(s.spin_episodes);
}

}  // namespace atcsim::sync
