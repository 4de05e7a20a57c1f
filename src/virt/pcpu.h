// Physical CPU: execution resource owned by a Node.
#pragma once

#include <cstdint>
#include <type_traits>

#include "simcore/time.h"
#include "virt/ids.h"

namespace atcsim::virt {

class Node;
class Vcpu;

class Pcpu {
 public:
  Pcpu(PcpuId id, Node& node, int index_in_node)
      : id_(id), index_in_node_(index_in_node), node_(&node) {}

  // The schedulers hold PCPU addresses, so a copy is always a bug.  Node
  // builds its PCPUs in place in its slice of the platform's arena array.
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
    /// Index of this PCPU's first timer in the engine's timer bank, set by
    /// Engine::start(): dispatch, slice expiry, deferred preemption and
    /// compute segment end follow in that order (Engine::TimerKind).
    std::uint32_t timers = 0;
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

// Each platform holds its PCPUs in one contiguous array (131,072 of them at
// 16384 nodes): 24 bytes of identity and current VCPU, 40 of engine state
// and 8 of totals.
static_assert(sizeof(Pcpu) <= 72, "Pcpu outgrew 72 bytes");
// The array lives in the arena, which runs no destructors.
static_assert(std::is_trivially_destructible_v<Pcpu>,
              "Node would have to destroy its PCPUs");

}  // namespace atcsim::virt
