// Dynamic Co-Scheduling (CS) [7].
//
// Builds on the credit scheduler.  A VM whose spinlock wait time over the
// last scheduling period exceeds a threshold is marked "concurrent"; when
// any of its VCPUs is dispatched, the scheduler gang-dispatches the VM: each
// runnable sibling preempts the PCPU of its run queue so the whole VM runs
// simultaneously.  Gang dispatch is rate-limited to once per VM time slice
// to avoid preemption storms.
//
// The gang state is flat and node-local, sized at attach: one slot per VM
// slot of the node, so the steady state allocates nothing.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "sched/credit.h"
#include "sync/period_monitor.h"

namespace atcsim::sched {

class CoScheduler : public CreditScheduler {
 public:
  /// `monitor` must outlive the scheduler.
  explicit CoScheduler(const sync::PeriodMonitor& monitor)
      : monitor_(&monitor) {}

  void attach(virt::Node& node, virt::Engine& engine) override;
  Vcpu* pick_next(Pcpu& p) override;
  void on_dispatched(Vcpu& v, Pcpu& p) override;

  /// Period hook: refreshes concurrent-VM flags from the monitor snapshot.
  void on_period();

  bool is_gang(const Vm& vm) const {
    const std::size_t i = slot_index(vm);
    return i < slots_.size() && slots_[i].gang;
  }

  /// True when `w` must not be displaced by a gang pick/preemption:
  /// BOOST VCPUs, and under-served (UNDER) VCPUs of non-concurrent VMs
  /// (web/CPU/dom0).  Spinning gang VMs preempt each other freely.
  bool gang_protected(const Vcpu& w) const;

 private:
  static constexpr sim::SimTime kNeverLaunched =
      std::numeric_limits<sim::SimTime>::min();

  /// Gang state of the VM in one slot of Node::vms().  A VM that arrives
  /// by migration takes a new slot: no gang and no launch until the next
  /// period marks it.
  struct VmSlot {
    bool gang = false;  ///< concurrent in the last period
    sim::SimTime last_launch = kNeverLaunched;
  };

  /// Index of `vm` in Node::vms(), or its size when `vm` is not hosted
  /// here.
  std::size_t slot_index(const Vm& vm) const;
  /// The slot of `vm`, which is hosted here; grows the slots to the node's
  /// VM slots after a migration arrival.
  VmSlot& slot_of(const Vm& vm);

  const sync::PeriodMonitor* monitor_;
  std::vector<VmSlot> slots_;  ///< by Node::vms() index, sized at attach
  /// on_dispatched's claimable PCPUs, reserved for the node at attach.
  std::vector<Pcpu*> claimable_;
  std::vector<Vcpu*> forced_;  // per pcpu index: gang sibling to run next
  bool last_pick_forced_ = false;
};

}  // namespace atcsim::sched
