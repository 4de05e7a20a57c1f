// One-shot synchronization condition.
//
// Guests wait on a SyncEvent either spinning (kSpinWait: the VCPU stays
// runnable and burns CPU — the user-space MPI busy-poll model) or blocked
// (kBlockWait: the VCPU halts and is woken with BOOST — the kernel/IRQ
// model).  A SyncEvent is signalled at most once between resets;
// steady-state consumers (dom0's idle wait, BspApp's generation ring of
// barrier events) reset() and reuse their events.
//
// Waiters form an intrusive FIFO list threaded through
// Vcpu::EngineState::next_waiter: a VCPU waits on at most one event at a
// time (EngineState::wait_registered), so one link per VCPU suffices and
// registering, signalling and resetting never touch the allocator.
#pragma once

#include <cassert>
#include <cstdint>

#include "simcore/time.h"

namespace atcsim::virt {

class Engine;
class Vcpu;

class SyncEvent {
 public:
  /// Unbound: rebind() must name the engine before the first signal() or
  /// signal_in().  Lets owners build events in place in flat arrays.
  SyncEvent() = default;
  explicit SyncEvent(Engine& engine) : engine_(&engine) {}
  SyncEvent(const SyncEvent&) = delete;
  SyncEvent& operator=(const SyncEvent&) = delete;

  /// Binds the event to an engine, or re-homes it onto another one (live
  /// migration: the owning workload travels with its VM and must signal
  /// waiters through the destination platform's engine).  Only legal
  /// between events.
  void rebind(Engine& engine) { engine_ = &engine; }

  /// Fires the condition.  Blocked waiters are woken; waiters spinning on a
  /// PCPU proceed immediately; descheduled spinners proceed when next
  /// dispatched (they cannot observe the flag without CPU time).
  void signal();

  bool signalled() const { return signalled_; }

  /// Re-arms a consumed event for the next wait/signal cycle.  Only legal
  /// with no waiters registered: signal() detaches the whole list, so this
  /// holds once the event has fired and nobody has waited on it since.
  void reset() {
    assert(head_ == nullptr && "reset() with waiters still registered");
    signalled_ = false;
  }

  /// Engine bookkeeping: appends a waiter (any wait style) to the list.
  /// While a signal_in timer on this event is pending in the engine's
  /// effect index, a waiter-set change re-keys the index entry (the entry's
  /// key is the fire time plus the minimum waiter effect distance); the
  /// cold notify path stays out of line so the common un-indexed case is
  /// one branch.
  void add_waiter(Vcpu& v);

  /// First registered waiter (registration order), or nullptr; the rest
  /// follow through Vcpu::EngineState::next_waiter.  Read by the engine's
  /// effect bound to credit a pending timer with its waiters' distances.
  const Vcpu* first_waiter() const { return head_; }

  // --- effect-index bookkeeping (Engine::signal_in only) ------------------
  /// Fire time of the pending signal_in timer registered on this event in
  /// the engine's effect index; 0 when none.  At most one timer may be
  /// pending per event (both signal_in users re-arm only after firing).
  sim::SimTime effect_pending_at() const { return effect_when_; }
  /// Version of this event's effect-index entry: heap nodes stamped with an
  /// older sequence are stale and discarded lazily at inspection.
  std::uint32_t effect_seq() const { return effect_seq_; }
  void set_effect_pending(sim::SimTime when) {
    effect_when_ = when;
    ++effect_seq_;
  }
  /// Kills the pending entry (signal consumed it, or migration cancelled
  /// the timer); the sequence bump lazily invalidates any heap node.
  void clear_effect_pending() {
    if (effect_when_ != 0) {
      effect_when_ = 0;
      ++effect_seq_;
    }
  }
  std::uint32_t bump_effect_seq() { return ++effect_seq_; }

 private:
  void notify_effect_waiters_changed();

  Engine* engine_ = nullptr;
  Vcpu* head_ = nullptr;  ///< oldest waiter
  Vcpu* tail_ = nullptr;  ///< newest waiter (append point)
  sim::SimTime effect_when_ = 0;
  std::uint32_t effect_seq_ = 0;
  bool signalled_ = false;
};

}  // namespace atcsim::virt
