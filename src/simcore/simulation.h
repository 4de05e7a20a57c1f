// Simulation driver: owns the clock, the event queue and the shard's record
// arena.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/trace.h"
#include "simcore/arena.h"
#include "simcore/event_queue.h"
#include "simcore/time.h"

namespace atcsim::sim {

/// Single-threaded discrete-event simulation — THE scheduling facade.
///
/// All model components hold a reference to one Simulation and schedule
/// work exclusively through this surface:
///
///   one-shot:  call_in / call_at / cancel
///   recurring: make_timer / arm_at / arm_in / disarm
///
/// EventQueue underneath is an implementation detail; its raw schedule/drain
/// API is internal (only this class and its tests touch it), so a shard
/// executor built over a Simulation exposes exactly one scheduling API.
/// Runs are deterministic: same model + same seed => identical event order.
/// In a sharded run (simcore/shard.h) each shard owns one Simulation;
/// nothing here is thread-aware because a shard is only ever touched by its
/// owning worker between barriers.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run after `delay` (>= 0) from now.
  EventId call_in(SimTime delay, EventQueue::Callback fn) {
    return queue_.schedule(now_ + delay, std::move(fn));
  }

  /// Schedules `fn` at absolute time `when` (>= now()).
  EventId call_at(SimTime when, EventQueue::Callback fn) {
    return queue_.schedule(when, std::move(fn));
  }

  bool cancel(EventId id) { return queue_.cancel(id); }

  // --- recurring timers: reusable slots, re-armed in place ---------------
  // The engine's per-PCPU slice/dispatch timers go through these; a firing
  // costs one heap-key push with no callback construction or allocation.

  TimerId make_timer(EventQueue::Callback fn) {
    return queue_.make_timer(std::move(fn));
  }
  void arm_at(TimerId t, SimTime when) { queue_.arm(t, when); }
  void arm_in(TimerId t, SimTime delay) { queue_.arm(t, now_ + delay); }
  /// Cancels the pending firing, if any; no-op (returns false) when the
  /// timer is not armed — e.g. when it just fired.
  bool disarm(TimerId t) { return queue_.disarm(t); }

  /// Runs events until the queue drains or `deadline` is reached; the clock
  /// is advanced to the deadline when events remain.  Returns the number of
  /// events executed.
  std::uint64_t run_until(SimTime deadline);

  /// Total events executed since construction.
  std::uint64_t events_executed() const { return events_executed_; }

  /// Time of the earliest pending event, or kTimeNever when the queue is
  /// empty.  The conservative synchronizer reduces this across shards to
  /// pick each round's horizon.
  SimTime next_event_time() const {
    return queue_.empty() ? kTimeNever : queue_.next_time();
  }

  /// Read-only view of the event queue (observability: heap/slab sizing in
  /// tests and benchmark reports).
  const EventQueue& queue() const { return queue_; }

  /// Record store for everything built on this simulation: the event
  /// queue's slot chunks and the per-node records of the Platform and
  /// network on it (nodes, PCPU and VCPU arrays, VMs, schedulers, dom0
  /// backends).  It outlives those owners, which destroy their records
  /// before it frees the storage.
  Arena& arena() { return arena_; }
  const Arena& arena() const { return arena_; }

  /// Attaches a structured trace sink (non-owning; nullptr disables).  Every
  /// model component reaches the sink through its Simulation, so one call
  /// instruments the whole run.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }
  obs::TraceSink* trace() const { return trace_; }

 private:
  void trace_dispatch(std::uint64_t executed_in_run);

  Arena arena_;  // declared first: freed after the queue's chunks
  EventQueue queue_{arena_};
  SimTime now_ = 0;
  std::uint64_t events_executed_ = 0;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace atcsim::sim
