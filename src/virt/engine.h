// Execution engine: drives VCPUs over PCPUs under the node schedulers.
//
// The engine owns every VCPU state transition.  Schedulers decide *who* runs
// and for *how long*; the engine executes guest programs, accounts CPU/spin
// time, applies context-switch and cache-refill costs, delivers event-channel
// mail, and services SyncEvent signals.
#pragma once

#include <memory>
#include <vector>

#include "simcore/inline_callback.h"
#include "simcore/simulation.h"
#include "virt/migration.h"
#include "virt/params.h"
#include "virt/platform.h"

namespace atcsim::virt {

class SyncEvent;

class Engine {
 public:
  Engine(sim::Simulation& simulation, Platform& platform);

  /// Creates each PCPU's four reusable timers (dispatch, slice, resched,
  /// compute), enqueues every VCPU that has a workload and begins
  /// scheduling.  Call exactly once, before running the simulation.
  void start();

  sim::Simulation& simulation() { return *sim_; }
  Platform& platform() { return *platform_; }
  const ModelParams& params() const { return platform_->params(); }

  // --- services for workloads / net / schedulers -------------------------

  /// Delivers an event-channel notification to `vm`.  If some VCPU of the
  /// VM is on a PCPU the handler runs immediately (IRQ into a running
  /// guest); otherwise it is queued and a blocked VCPU (if any) is woken,
  /// and the mailbox drains when the VM is next dispatched.  This is the
  /// "wait for the VM to be scheduled" overhead of Fig. 4.
  void deposit(Vm& vm, sim::InlineCallback handler);

  /// Blocked -> runnable transition (SyncEvent signal or IRQ).
  void wake(Vcpu& v);

  /// Ends the current slice of `p` immediately and re-runs scheduling
  /// (gang dispatch / wake preemption).  No-op while `p` is mid-dispatch.
  void request_resched(Pcpu& p);

  /// Attempts to dispatch work onto any idle PCPU of `node`.
  void kick_idle_pcpus(Node& node);

  /// SyncEvent plumbing: called by SyncEvent::signal with the head of its
  /// detached waiter list (nullptr when nobody waited).
  void on_signalled(Vcpu* first);

  /// Schedules `ev.signal()` in `delay`: the engine's workload timer.
  /// `owner` (optional) attributes the pending timer to a VM: a migratable
  /// workload passes its own VM so pause_and_expel can cancel the firing and
  /// carry the remaining delay to the destination engine.  Timers with no
  /// owner are pinned to this engine (fine for everything that never
  /// migrates).
  void signal_in(SyncEvent& ev, sim::SimTime delay, Vm* owner = nullptr);

  /// Total context switches executed platform-wide.
  std::uint64_t total_switches() const { return total_switches_; }

  // --- live migration (stop-and-copy) ------------------------------------

  /// Source half of a migration, at decision time t: forces the VM's
  /// running VCPUs off their PCPUs (accounting the partial stints), pulls
  /// every VCPU out of the node's run queues, cancels the VM's owned
  /// workload timers (their remaining delays travel in the bundle) and
  /// detaches the Vm, queued mail included, from the platform.
  /// `arrive_time` is t_r, the end of the copy window.
  std::unique_ptr<MigrationBundle> pause_and_expel(
      Vm& vm, std::int32_t dest_node_global, sim::SimTime arrive_time);

  /// Destination half, at t_r: attaches the VM to `dest_node`, runs the
  /// workloads' on_vm_migrated rebind hooks, re-arms the travelled timers,
  /// restores runnability and kicks the node's idle PCPUs.  It creates no
  /// timer slots: a VCPU computes on its PCPU's compute timer.
  Vm& adopt_and_resume(MigrationBundle& bundle, NodeId dest_node);

 private:
  void dispatch(Pcpu& p);
  void run_current(Pcpu& p);
  void compute_finished(Pcpu& p, Vcpu& v);
  void slice_expired(Pcpu& p);
  enum class LeaveReason { kSliceEnd, kBlock, kExit, kPreempt };
  void leave_cpu(Pcpu& p, LeaveReason reason);
  /// Folds the elapsed time of the current on-CPU segment into accounting.
  void account_segment(Pcpu& p, Vcpu& v);
  void end_spin_episode(Vcpu& v);
  void drain_mailbox(Vm& vm);
  void schedule_dispatch(Pcpu& p);

  sim::Simulation* sim_;
  Platform* platform_;
  bool started_ = false;
  std::uint64_t total_switches_ = 0;

  /// VM-owned pending workload timers (signal_in with an owner): enough to
  /// cancel and re-home them when the owner migrates.  Fired entries are
  /// pruned lazily (cancel() on a fired EventId is a safe no-op thanks to
  /// generation tags, but we sweep to keep the vector small).
  struct OwnedTimer {
    Vm* owner = nullptr;
    SyncEvent* ev = nullptr;
    sim::SimTime fire = 0;
    sim::EventId id{};
  };
  std::vector<OwnedTimer> owned_timers_;

  void prune_owned_timers();
};

}  // namespace atcsim::virt
