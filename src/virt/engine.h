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

  /// Schedules `ev.signal()` in `delay`: the engine's workload timer.  The
  /// timer is filed under the VM `ev` is bound to (SyncEvent::vm), so when
  /// that VM migrates pause_and_expel cancels the firing and carries the
  /// remaining delay to the destination engine.
  void signal_in(SyncEvent& ev, sim::SimTime delay);

  /// Total context switches executed platform-wide.
  std::uint64_t total_switches() const { return total_switches_; }

  // --- live migration (stop-and-copy) ------------------------------------

  /// Source half of a migration, at decision time t: forces the VM's
  /// running VCPUs off their PCPUs (accounting the partial stints), pulls
  /// every VCPU out of the node's run queues, cancels the VM's owned
  /// workload timers (their remaining delays travel in the bundle) and
  /// detaches the Vm, queued mail included, from the platform.
  std::unique_ptr<MigrationBundle> pause_and_expel(
      Vm& vm, std::int32_t dest_node_global);

  /// Destination half, at t_r: attaches the VM to `dest_node`, re-arms the
  /// travelled timers, restores runnability and kicks the node's idle
  /// PCPUs.  The workloads need no fix-up: their events and sends reach
  /// this platform through the VM.  It creates no timer slots: a VCPU
  /// computes on its PCPU's compute timer.
  Vm& adopt_and_resume(MigrationBundle& bundle, NodeId dest_node);

 private:
  /// Callback of one of a PCPU's four timers: runs `Fired` on its PCPU.  Its
  /// prefetch hook names the PCPU record, which the event queue then starts
  /// fetching while its heap pops.
  template <void (Engine::*Fired)(Pcpu&)>
  struct PcpuTimer {
    Engine* engine;
    Pcpu* pcpu;
    void operator()() const { (engine->*Fired)(*pcpu); }
    void prefetch() const { sim::prefetch_lines(pcpu); }
  };
  void dispatch_timer_fired(Pcpu& p);
  void resched_timer_fired(Pcpu& p);
  void compute_timer_fired(Pcpu& p);

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

  /// Pending workload timers, each filed under its event's VM: enough to
  /// cancel and re-home them when that VM migrates.  Fired entries are
  /// pruned lazily (cancel() on a fired EventId is a safe no-op thanks to
  /// generation tags): signal_in sweeps only once the vector reaches
  /// `prune_at_`, twice its size after the last sweep and at least
  /// kMinPruneAt, so a timer costs amortized O(1) however many are pending.
  struct OwnedTimer {
    Vm* owner = nullptr;
    SyncEvent* ev = nullptr;
    sim::SimTime fire = 0;
    sim::EventId id{};
  };
  std::vector<OwnedTimer> owned_timers_;
  static constexpr std::size_t kMinPruneAt = 64;
  std::size_t prune_at_ = kMinPruneAt;

  void prune_owned_timers();
};

}  // namespace atcsim::virt
