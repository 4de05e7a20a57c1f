// Execution engine: drives VCPUs over PCPUs under the node schedulers.
//
// The engine owns every VCPU state transition.  Schedulers decide *who* runs
// and for *how long*; the engine executes guest programs, accounts CPU/spin
// time, applies context-switch and cache-refill costs, delivers event-channel
// mail, and services SyncEvent signals.
//
// It also answers the sharded synchronizer's question "when could guest code
// next act on the network here?" (earliest_effect_time): workload timers
// register through signal_in/note_effect_at, queued event-channel mail is
// counted, and every runnable/running VCPU is bounded by its remaining
// compute plus its workload's declared distance to its next network act
// (Workload::effect_distance) — see DESIGN.md §10.
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

  /// Enqueues every VCPU that has a workload and begins scheduling.
  /// Call exactly once, before running the simulation.
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

  /// Schedules `ev.signal()` in `delay` and records the pending wake so
  /// earliest_effect_time can see it.  Every workload timer whose firing can
  /// re-enter guest code (think sleeps, paced senders) must use this — or
  /// note_effect_at for non-SyncEvent callbacks — instead of a raw
  /// Simulation::call_in, or the sharded synchronizer's output bound would
  /// let neighbour shards outrun the traffic the timer triggers.  The
  /// pending entry is credited with the registered waiters' own
  /// effect_distance, so the caller should block on `ev` within the same
  /// event (both signal_in users do).
  ///
  /// Contracts the effect index relies on (both asserted where cheap):
  /// at most one signal_in may be pending per event (re-arm only after the
  /// previous firing), and a registered waiter's effect_distance is stable
  /// while it waits (a workload's program counter only advances in next()).
  ///
  /// `owner` (optional) attributes the pending timer to a VM: a migratable
  /// workload passes its own VM so pause_and_expel can cancel the firing and
  /// carry the remaining delay to the destination engine.  Timers with no
  /// owner are pinned to this engine (fine for everything that never
  /// migrates).
  void signal_in(SyncEvent& ev, sim::SimTime delay, Vm* owner = nullptr);

  /// Records that a registered timer may act on the network at `when`
  /// (absolute).  Cheap: one lazily-pruned min-heap push.
  void note_effect_at(sim::SimTime when);

  /// SyncEvent plumbing: `ev`'s waiter set changed while a signal_in timer
  /// on it is pending, so the pending entry's key (fire time plus minimum
  /// waiter effect_distance) must be re-derived.  The old heap node is
  /// invalidated by sequence bump and a fresh node pushed — a lowered key
  /// could otherwise hide below a stale heap top.
  void on_effect_event_changed(SyncEvent& ev);

  /// Enables/disables the effect-time index.  Unsharded scenarios turn it
  /// off (nothing ever asks for the bound there), which removes the index
  /// bookkeeping from the timer hot path entirely; defaults to on so
  /// direct-Platform users and tests keep the full contract.  Flip only
  /// before Engine::start().
  void set_effect_tracking(bool on) { effect_tracking_ = on; }
  bool effect_tracking() const { return effect_tracking_; }

  /// Diagnostics: compute both the incremental index and the preserved
  /// full-scan reference at every bound query and abort on any mismatch
  /// (the differential property test).  Exactness, not conservatism, is the
  /// contract: the index changes when bounds are computed, never their
  /// values.
  void set_differential_check(bool on) { differential_check_ = on; }

  /// Incremental-bound cache effectiveness, for bench/report plumbing:
  /// `recomputes` counts per-VM bound derivations actually performed at
  /// queries, `cache_hits` counts VM bounds served from the fold tree
  /// without recomputation.
  struct BoundStats {
    std::uint64_t recomputes = 0;
    std::uint64_t cache_hits = 0;
  };
  const BoundStats& bound_stats() const { return bound_stats_; }

  /// Event-channel mail queued in VM mailboxes (handlers that will run at
  /// the owning VM's next dispatch).
  std::size_t pending_deposits() const { return deposits_pending_; }

  /// Conservative lower bound on the next simulated time guest code on this
  /// platform can act on the network (a VirtualNetwork send or inject),
  /// from the current rest state; kTimeNever when nothing ever will.  Each
  /// live VCPU contributes its remaining compute plus its workload's
  /// effect_distance; pending timers contribute their fire time plus their
  /// waiters' distance; queued deposits degrade the bound to now.  In-flight
  /// I/O chains (packets, disk) are the *caller's* responsibility to check
  /// (VirtualNetwork::packets_in_flight), since their completion events
  /// deposit mail this scan never sees.  Call only while the simulation is
  /// at rest (between PDES phases), never from inside an event.
  ///
  /// Cost is O(dirty) per call, not O(cluster): per-VM bounds are cached in
  /// a tournament tree and only VMs touched by an event since the previous
  /// query are re-derived; the timer side reads a lazy min-heap top.  See
  /// DESIGN.md §10.  Requires effect tracking enabled.
  sim::SimTime earliest_effect_time();

  /// The preserved pre-index implementation: a full walk of every pending
  /// timer and every VCPU, kept (like sched::LinearRunQueues) as the
  /// differential oracle the incremental index must match value-for-value.
  sim::SimTime earliest_effect_time_reference();

  /// Total context switches executed platform-wide.
  std::uint64_t total_switches() const { return total_switches_; }

  // --- live migration (stop-and-copy) ------------------------------------

  /// Source half of a migration, at decision time t: forces the VM's
  /// running VCPUs off their PCPUs (accounting the partial stints), pulls
  /// every VCPU out of the node's run queues, cancels the VM's owned
  /// workload timers (their remaining delays travel in the bundle), removes
  /// the VM's queued mail from this engine's deposit count (the mailbox
  /// itself travels inside the Vm), and detaches the Vm from the platform.
  /// `arrive_time` is t_r, the end of the copy window.
  std::unique_ptr<MigrationBundle> pause_and_expel(
      Vm& vm, std::int32_t dest_node_global, sim::SimTime arrive_time);

  /// Destination half, at t_r: attaches the VM to `dest_node`, gives every
  /// VCPU a fresh segment timer on this simulation, runs the workloads'
  /// on_vm_migrated rebind hooks, re-arms the travelled timers, restores
  /// runnability and kicks the node's idle PCPUs.
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

  /// Flags `vm`'s cached effect bound stale: the VM joins the dirty ring
  /// and is re-derived at the next bound query.  Every engine-owned
  /// transition that can move a bound input (dispatch/preempt, segment
  /// accounting, block/wake, workload next(), deposits, migration) calls
  /// this; with tracking off it is a single predicted-not-taken branch.
  void mark_effect(Vm& vm) {
    if (!effect_tracking_ || vm.effect_bound_dirty()) return;
    vm.set_effect_bound_dirty(true);
    effect_dirty_.push_back(vm.id());
  }

  sim::Simulation* sim_;
  Platform* platform_;
  bool started_ = false;
  bool effect_tracking_ = true;
  bool differential_check_ = false;
  std::uint64_t total_switches_ = 0;
  std::size_t deposits_pending_ = 0;

  /// A registered timer that can lead guest code back to the network: fires
  /// at `when`, waking `ev`'s waiters (nullptr: a direct injection at
  /// `when`, e.g. an open-loop client's next arrival).  `key` is the
  /// entry's bound contribution — `when` plus the minimum waiter
  /// effect_distance, saturated — frozen at push time; `seq` ties an event
  /// node to the arming generation it was pushed under.
  struct EffectNode {
    sim::SimTime key = 0;
    sim::SimTime when = 0;
    SyncEvent* ev = nullptr;
    std::uint32_t seq = 0;
  };
  /// Min-heap on `key` (O(log n) push, O(1) min) *and* the entry registry
  /// the reference scan iterates linearly.  Nodes die in place — the clock
  /// passes `when`, or the event's sequence moves on (signal fired, waiter
  /// set changed, migration cancelled the timer) — and are discarded
  /// lazily: at the top by the incremental reader, anywhere by the
  /// amortized doubling-threshold prune on push.  Capacity is retained, so
  /// a timer-driven steady state allocates nothing after warm-up.
  std::vector<EffectNode> effect_heap_;
  static constexpr std::size_t kEffectPruneFloor = 16;
  std::size_t effect_prune_threshold_ = kEffectPruneFloor;

  /// One VM's cached contribution to the engine bound, split so it can be
  /// folded without knowing the query time: `abs` collects absolute terms
  /// (a running segment's start + debt + left, plus distance), `rel`
  /// collects now-relative terms (a runnable VCPU's debt + left + distance;
  /// a dispatchable VCPU's bare distance).  The engine bound of a fold is
  /// min(abs, now + rel), saturated — min distributes through the monotone
  /// add, so folding pairs component-wise is exact, not just conservative.
  struct BoundPair {
    sim::SimTime abs = sim::kTimeNever;
    sim::SimTime rel = sim::kTimeNever;
    bool operator==(const BoundPair& o) const {
      return abs == o.abs && rel == o.rel;
    }
  };
  /// Flat binary tournament tree over VM id slots: leaves at
  /// [fold_cap_, fold_cap_ + slots), root at [1], component-wise pair mins
  /// inside.  Leaf updates climb only while the parent changes; the query
  /// reads the root.  Tombstone slots hold {kTimeNever, kTimeNever}.
  std::vector<BoundPair> fold_tree_;
  std::size_t fold_cap_ = 0;
  /// VM id slots already incorporated into the fold tree; slots at or past
  /// this (VMs created or adopted since the last query) are swept in at the
  /// next query, so no creation-time hook is needed.
  std::size_t fold_synced_ = 0;
  /// Ids whose cached BoundPair is stale (flag lives on the Vm).  Entries
  /// for since-expelled VMs resolve to null and are skipped.
  std::vector<VmId> effect_dirty_;
  BoundStats bound_stats_;

  BoundPair vm_bound_pair(const Vm& vm) const;
  void ensure_fold_capacity(std::size_t slots);
  void update_fold_leaf(std::size_t slot, BoundPair bp);
  void refresh_dirty_vms();
  void push_effect_node(SyncEvent& ev, sim::SimTime when);
  void prune_effect_heap();
  sim::SimTime earliest_effect_time_incremental();

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
