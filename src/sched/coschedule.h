// Dynamic Co-Scheduling (CS) [7].
//
// Builds on the credit scheduler.  A VM whose spinlock wait time over the
// last scheduling period exceeds a threshold is marked "concurrent"; when
// any of its VCPUs is dispatched, the scheduler gang-dispatches the VM: each
// runnable sibling preempts the PCPU of its run queue so the whole VM runs
// simultaneously.  Gang dispatch is rate-limited to once per VM time slice
// to avoid preemption storms.
#pragma once

#include <unordered_map>
#include <unordered_set>

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

  bool is_gang(const Vm& vm) const { return gang_.contains(&vm); }

  /// True when `w` must not be displaced by a gang pick/preemption:
  /// BOOST VCPUs, and under-served (UNDER) VCPUs of non-concurrent VMs
  /// (web/CPU/dom0).  Spinning gang VMs preempt each other freely.
  bool gang_protected(const Vcpu& w) const;

 private:
  const sync::PeriodMonitor* monitor_;
  std::unordered_set<const Vm*> gang_;
  std::unordered_map<const Vm*, sim::SimTime> last_gang_dispatch_;
  std::vector<Vcpu*> forced_;  // per pcpu index: gang sibling to run next
  bool last_pick_forced_ = false;
};

}  // namespace atcsim::sched
