// Physical CPU: execution resource owned by a Node.
#pragma once

#include <cstdint>
#include <type_traits>

#include "simcore/event_queue.h"
#include "simcore/time.h"
#include "virt/ids.h"

namespace atcsim::virt {

class Node;
class Vcpu;

class Pcpu {
 public:
  Pcpu(PcpuId id, Node& node, int index_in_node)
      : id_(id), index_in_node_(index_in_node), node_(&node) {}

  // The engine's timers and the schedulers hold PCPU addresses, so a copy
  // is always a bug.  Node builds its PCPUs in place in its arena array.
  Pcpu(const Pcpu&) = delete;
  Pcpu& operator=(const Pcpu&) = delete;

  PcpuId id() const { return id_; }
  Node& node() { return *node_; }
  const Node& node() const { return *node_; }
  int index_in_node() const { return index_in_node_; }

  Vcpu* current() { return current_; }
  const Vcpu* current() const { return current_; }
  bool idle() const { return current_ == nullptr; }

  // Engine working state (engine.cc is the only writer).
  struct EngineState {
    // Reusable timer slots, created once by Engine::start(): dispatches,
    // slice expiries and compute segments re-arm in place instead of
    // cancel+alloc+push per cycle.
    sim::TimerId slice_timer;      ///< slice-expiry timer
    sim::TimerId dispatch_timer;   ///< zero-delay dispatch trampoline
    sim::TimerId resched_timer;    ///< deferred (ratelimited) preemption
    /// The current VCPU's compute segment finishing before its slice ends.
    /// Only the VCPU on the core can compute, so one slot per PCPU serves
    /// every VCPU; armed by run_current, disarmed by leave_cpu.
    sim::TimerId compute_timer;
    sim::SimTime slice_end = 0;    ///< absolute end of current slice
    /// When the current VCPU's on-CPU stint began (dispatch time).  Stint
    /// and segment mean something only while a VCPU runs, so they live
    /// here rather than in every Vcpu.
    sim::SimTime stint_start = 0;
    /// When the current VCPU's accounting segment began: a compute or spin
    /// stretch, folded into its totals by Engine::account_segment.
    sim::SimTime segment_start = 0;
    /// Last VCPU that occupied the core; used for the cache-warmth model
    /// (no refill when the same VCPU resumes with nothing in between).
    Vcpu* last_resident = nullptr;
    bool in_dispatch = false;      ///< guards re-entrant scheduling
    bool dispatch_pending = false; ///< a zero-delay dispatch event is queued
    bool resched_pending = false;  ///< a deferred (ratelimited) preemption is queued
  };
  EngineState& eng() { return eng_; }

  void set_current(Vcpu* v) { current_ = v; }

  struct Totals {
    sim::SimTime busy = 0;
  };
  Totals& totals() { return totals_; }
  const Totals& totals() const { return totals_; }

 private:
  PcpuId id_;
  int index_in_node_;
  Node* node_;
  Vcpu* current_ = nullptr;
  EngineState eng_;
  Totals totals_;
};

// Nodes hold their PCPUs in one contiguous array (131,072 of them at 16384
// nodes): 24 bytes of identity and current VCPU, 56 of engine state and 8
// of totals.
static_assert(sizeof(Pcpu) <= 88, "Pcpu outgrew 88 bytes");
// The array lives in the arena, which runs no destructors.
static_assert(std::is_trivially_destructible_v<Pcpu>,
              "Node would have to destroy its PCPUs");

}  // namespace atcsim::virt
