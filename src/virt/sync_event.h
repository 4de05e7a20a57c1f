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
//
// The signalled flag is a sentinel value of the list's tail.  signal()
// detaches the list before it sets the sentinel, and no VCPU registers on a
// signalled event (the engine tests signalled() before it waits), so a
// signalled event never has a waiter.
#pragma once

#include <cassert>
#include <cstddef>

namespace atcsim::virt {

class Vcpu;
class Vm;

class SyncEvent {
 public:
  /// Unbound: bind() must name the VM before the first signal() or
  /// signal_in().  Lets owners build events in place in flat arrays.
  SyncEvent() = default;
  explicit SyncEvent(Vm& vm) : vm_(&vm) {}
  SyncEvent(const SyncEvent&) = delete;
  SyncEvent& operator=(const SyncEvent&) = delete;

  /// Binds the event to the VM whose platform serves it.  signal() looks
  /// the engine up through the VM, so the event follows its VM across live
  /// migrations with no rebinding.
  void bind(Vm& vm) { vm_ = &vm; }

  /// The VM the event is bound to; nullptr while unbound.  The engine files
  /// a workload timer on the event under this VM (Engine::signal_in).
  Vm* vm() const { return vm_; }

  /// Fires the condition.  Blocked waiters are woken; waiters spinning on a
  /// PCPU proceed immediately; descheduled spinners proceed when next
  /// dispatched (they cannot observe the flag without CPU time).
  void signal();

  bool signalled() const { return tail_ == signalled_mark(); }

  /// Re-arms a consumed event for the next wait/signal cycle.  Only legal
  /// with no waiters registered: signal() detaches the whole list, so this
  /// holds once the event has fired and nobody has waited on it since.
  void reset() {
    assert(head_ == nullptr && "reset() with waiters still registered");
    tail_ = nullptr;
  }

  /// Engine bookkeeping: appends a waiter (any wait style) to the list.
  /// The event must not be signalled.
  void add_waiter(Vcpu& v);

  /// First registered waiter (registration order), or nullptr; the rest
  /// follow through Vcpu::EngineState::next_waiter.
  const Vcpu* first_waiter() const { return head_; }

 private:
  /// tail_'s value while signalled: the address of a private static, which
  /// no VCPU can share.  Never dereferenced.
  static Vcpu* signalled_mark() {
    return reinterpret_cast<Vcpu*>(&signalled_tag_);
  }
  alignas(std::max_align_t) static inline char signalled_tag_ = 0;

  Vm* vm_ = nullptr;
  Vcpu* head_ = nullptr;  ///< oldest waiter
  Vcpu* tail_ = nullptr;  ///< newest waiter (append point), or the mark
};

// A BspApp holds one per barrier of every VM and generation slot
// (1,048,576 at 16384 nodes), so it is kept to three words.
static_assert(sizeof(SyncEvent) <= 24, "SyncEvent outgrew three words");

}  // namespace atcsim::virt
