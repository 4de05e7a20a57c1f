#include "sched/coschedule.h"

#include <algorithm>
#include <cassert>

#include "virt/platform.h"

namespace atcsim::sched {

using sim::SimTime;

namespace {

/// Spin wall-time per period above which a VM becomes concurrent.
constexpr SimTime kSpinThreshold = virt::ModelParams{}.accounting_period / 30;

}  // namespace

void CoScheduler::attach(virt::Node& node, virt::Engine& engine) {
  CreditScheduler::attach(node, engine);
  forced_.assign(node.pcpus().size(), nullptr);
  slots_.assign(node.vms().size(), VmSlot{});
  claimable_.reserve(node.pcpus().size());
}

std::size_t CoScheduler::slot_index(const Vm& vm) const {
  const std::vector<Vm*>& vms = node().vms();
  return static_cast<std::size_t>(std::find(vms.begin(), vms.end(), &vm) -
                                  vms.begin());
}

CoScheduler::VmSlot& CoScheduler::slot_of(const Vm& vm) {
  const std::size_t i = slot_index(vm);
  assert(i < node().vms().size() && "gang state of a VM hosted elsewhere");
  if (i >= slots_.size()) slots_.resize(node().vms().size());
  return slots_[i];
}

Vcpu* CoScheduler::pick_next(Pcpu& p) {
  Vcpu*& slot = forced_[static_cast<std::size_t>(p.index_in_node())];
  if (slot != nullptr) {
    // A gang pick must not displace a protected VCPU waiting at this
    // queue's front; the slot stays armed for the next dispatch instead.
    const bool outranked = queue_depth(p.index_in_node()) > 0 &&
                           gang_protected(*queue_front(p.index_in_node()));
    if (!outranked) {
      Vcpu* v = slot;
      slot = nullptr;
      if (v->runnable()) {
        last_pick_forced_ = true;
        v->sched().rq.boosted = false;
        v->sched().queue = p.id();
        return v;
      }
      // The sibling blocked/exited in the meantime; fall through.
    }
  }
  last_pick_forced_ = false;
  return CreditScheduler::pick_next(p);
}

void CoScheduler::on_dispatched(Vcpu& v, Pcpu& p) {
  CreditScheduler::on_dispatched(v, p);
  if (last_pick_forced_) return;  // this dispatch IS part of a gang launch
  const Vm& vm = v.vm();
  VmSlot& slot = slot_of(vm);
  if (!slot.gang) return;
  const SimTime now = engine().simulation().now();
  if (slot.last_launch != kNeverLaunched &&
      now - slot.last_launch < vm.time_slice()) {
    return;  // rate limit
  }
  slot.last_launch = now;

  // Claim a PCPU for every runnable sibling.  Real co-scheduling migrates
  // VCPUs so the whole VM runs simultaneously, so siblings are assigned to
  // any claimable PCPU (not just their own run queue's), each rescheduled
  // immediately (deferred one event so the current dispatch completes).
  claimable_.clear();
  for (Pcpu& pc : node().pcpus()) {
    if (&pc == &p) continue;
    if (forced_[static_cast<std::size_t>(pc.index_in_node())] != nullptr) {
      continue;  // claimed by an earlier gang launch
    }
    if (pc.current() != nullptr) {
      if (&pc.current()->vm() == &vm || pc.current()->vm().is_dom0()) {
        continue;  // sibling already running there / never preempt dom0
      }
      // Co-scheduling reorders execution but must not steal CPU share
      // from under-served non-concurrent VMs or boosted wakes.
      if (gang_protected(*pc.current())) continue;
    }
    claimable_.push_back(&pc);
  }
  std::size_t next_target = 0;
  for (Vcpu& s : v.vm().vcpus()) {
    if (&s == &v || !s.runnable()) continue;
    if (next_target >= claimable_.size()) break;
    if (!remove_from_queue(s)) continue;  // raced with another pick
    Pcpu& target = *claimable_[next_target++];
    s.sched().queue = target.id();
    forced_[static_cast<std::size_t>(target.index_in_node())] = &s;
    Pcpu* tp = &target;
    engine().simulation().call_in(
        0, [this, tp] { engine().request_resched(*tp); });
  }
}

bool CoScheduler::gang_protected(const Vcpu& w) const {
  if (w.vm().is_dom0()) return true;
  const virt::CreditPrio prio = effective_prio(w);
  if (prio == virt::CreditPrio::kBoost) return true;
  // Under-served non-concurrent VMs (web/CPU) keep their turns; spinning
  // parallel VMs preempt each other freely.
  return prio == virt::CreditPrio::kUnder && !is_gang(w.vm()) &&
         !w.vm().is_parallel();
}

void CoScheduler::on_period() {
  const std::vector<Vm*>& vms = node().vms();
  if (slots_.size() < vms.size()) slots_.resize(vms.size());  // arrivals
  for (std::size_t i = 0; i < vms.size(); ++i) {
    const Vm* vm = vms[i];
    // nullptr: a migration tombstone (Platform::expel_vm).
    slots_[i].gang = vm != nullptr && !vm->is_dom0() &&
                     vm->vcpu_count() >= 2 &&
                     monitor_->last(vm->id()).spin_wall > kSpinThreshold;
  }
}

}  // namespace atcsim::sched
