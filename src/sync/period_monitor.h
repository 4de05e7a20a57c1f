// Per-scheduling-period monitoring.
//
// The paper's monitor samples each VM's average spinlock latency once per
// VMM scheduling period (30 ms).  PeriodMonitor is the single owner of the
// per-period accumulators on every Vm: each period it snapshots them,
// resets them, and then runs one hook, which the installed approach uses
// to drive its controllers (cluster/approach.h).  A single resetter keeps
// multiple consumers consistent.
//
// The sampling timer is a reusable cancellable Simulation timer; the
// destructor disarms it, so a monitor can be destroyed before its
// simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "virt/platform.h"

namespace atcsim::sync {

class PeriodMonitor {
 public:
  explicit PeriodMonitor(virt::Platform& platform);
  ~PeriodMonitor();

  PeriodMonitor(const PeriodMonitor&) = delete;
  PeriodMonitor& operator=(const PeriodMonitor&) = delete;

  /// Begins sampling every ModelParams::accounting_period and runs
  /// `on_period` after each sample.  Call once, before running the
  /// simulation.  VMs created later (migration arrivals) are picked up
  /// automatically.
  void start(std::function<void()> on_period = {});

  /// Snapshot of `vm`'s accumulators over the last completed period.
  /// Spin episodes still in flight at the sampling instant are included
  /// with their latency accrued so far, so a VM stuck in a long spin is
  /// never misread as idle (see DESIGN.md).
  const virt::Vm::PeriodStats& last(virt::VmId id) const {
    static const virt::Vm::PeriodStats kEmpty{};
    const std::size_t i = static_cast<std::size_t>(id.index());
    return i < last_.size() ? last_[i] : kEmpty;
  }

  /// Average spinlock latency of the VM over the last period (the paper's
  /// monitored quantity); zero when the VM did not spin at all.
  sim::SimTime avg_spin_latency(virt::VmId id) const;

  std::uint64_t periods_elapsed() const { return periods_; }

 private:
  void sample();

  virt::Platform* platform_;
  std::vector<virt::Vm::PeriodStats> last_;
  std::function<void()> on_period_;
  std::uint64_t periods_ = 0;
  bool started_ = false;
  sim::TimerId timer_{};
};

}  // namespace atcsim::sync
