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
  void add_waiter(Vcpu& v);

  /// First registered waiter (registration order), or nullptr; the rest
  /// follow through Vcpu::EngineState::next_waiter.
  const Vcpu* first_waiter() const { return head_; }

 private:
  Engine* engine_ = nullptr;
  Vcpu* head_ = nullptr;  ///< oldest waiter
  Vcpu* tail_ = nullptr;  ///< newest waiter (append point)
  bool signalled_ = false;
};

}  // namespace atcsim::virt
