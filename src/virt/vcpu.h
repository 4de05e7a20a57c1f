// Virtual CPU: the schedulable entity.
#pragma once

#include <cstdint>

#include "simcore/event_queue.h"
#include "simcore/time.h"
#include "virt/ids.h"
#include "virt/workload_api.h"

namespace atcsim::virt {

class Vm;

enum class VcpuState : std::uint8_t {
  kRunnable,  ///< wants CPU (includes descheduled spinners)
  kRunning,   ///< currently on a PCPU
  kBlocked,   ///< halted, waiting for a SyncEvent
  kDone,      ///< program exited (or no program assigned)
};

/// Credit-scheduler priority classes, ordered best-first as in Xen.
/// kParked = a capped VM that exhausted its cap; never scheduled until its
/// credits are replenished (Xen's CSCHED_PRI_TS_PARKED).
enum class CreditPrio : std::uint8_t {
  kBoost = 0,
  kUnder = 1,
  kOver = 2,
  kParked = 3,
};

class Vcpu {
 public:
  Vcpu(VcpuId id, Vm& vm, int index_in_vm)
      : id_(id), vm_(&vm), index_in_vm_(index_in_vm) {}

  VcpuId id() const { return id_; }
  Vm& vm() { return *vm_; }
  const Vm& vm() const { return *vm_; }
  int index_in_vm() const { return index_in_vm_; }

  /// Binds the guest program.  Non-owning: applications own their rank
  /// workloads.  Must be set before Engine::start().
  void set_workload(Workload* w) { workload_ = w; }
  Workload* workload() { return workload_; }
  const Workload* workload() const { return workload_; }

  VcpuState state() const { return state_; }
  bool runnable() const { return state_ == VcpuState::kRunnable; }
  bool running() const { return state_ == VcpuState::kRunning; }

  // --- lifetime-cumulative accounting ---------------------------------
  struct Totals {
    sim::SimTime run = 0;        ///< on-CPU time (compute + spin)
    sim::SimTime spin_cpu = 0;   ///< on-CPU time spent busy-waiting
    std::uint64_t dispatches = 0;
  };
  const Totals& totals() const { return totals_; }

  /// Intrusive run-queue handle, owned by the node's scheduler
  /// (sched::IndexedRunQueues).  Gives O(1) membership tests and unlinks:
  /// `queue`/`cls` are -1 while the VCPU is not on any run queue.  `vm` is
  /// the dense node-local VM index assigned at scheduler attach; it backs
  /// the per-queue sibling counters that make Balance placement O(P).
  struct RunQueueLink {
    Vcpu* prev = nullptr;
    Vcpu* next = nullptr;
    std::int32_t queue = -1;  ///< run-queue index (pcpu index_in_node)
    std::int8_t cls = -1;     ///< CreditPrio bucket it was filed under
    std::int32_t vm = -1;     ///< dense node-local VM index (set at attach)
  };

  // ---------------------------------------------------------------------
  // Engine/scheduler working state.  Public struct rather than friend
  // spaghetti: only the engine and schedulers touch it.
  struct Sched {
    double credits = 0.0;
    CreditPrio prio = CreditPrio::kUnder;
    bool boosted = false;
    PcpuId queue;      ///< run-queue (PCPU) this VCPU is assigned to
    PcpuId last_pcpu;  ///< last PCPU it ran on (cache affinity)
    PcpuId pinned;     ///< hard affinity ("xl vcpu-pin"); invalid = none
    RunQueueLink rq;   ///< intrusive run-queue position (scheduler-owned)
  };
  Sched& sched() { return sched_; }
  const Sched& sched() const { return sched_; }

  struct EngineState {
    Action action;                      ///< current/next action to execute
    sim::SimTime compute_left = 0;      ///< remaining work of kCompute
    sim::SimTime cache_debt = 0;        ///< pending refill penalty to pay
    sim::SimTime stint_start = 0;       ///< when current on-CPU stint began
    sim::SimTime last_stint = 0;        ///< length of the previous stint
    sim::SimTime segment_start = 0;     ///< when current segment began
    sim::SimTime spin_episode_start = 0;///< wall start of current spin wait
    bool action_valid = false;          ///< false until first fetch
    bool in_spin_episode = false;
    bool wait_registered = false;       ///< in its event's waiter list
    sim::TimerId segment_timer;         ///< compute-finish timer (reusable)
    class Pcpu* on_pcpu = nullptr;      ///< set while kRunning
    /// Intrusive SyncEvent waiter-list link (see sync_event.h); meaningful
    /// only while wait_registered.
    Vcpu* next_waiter = nullptr;
  };
  EngineState& eng() { return eng_; }
  const EngineState& eng() const { return eng_; }

  // Engine-only state transitions (public for the engine; see engine.cc).
  void set_state(VcpuState s) { state_ = s; }
  Totals& mutable_totals() { return totals_; }
  /// Migration rewiring (Platform::adopt_vm only).
  void set_id(VcpuId id) { id_ = id; }

 private:
  VcpuId id_;
  Vm* vm_;
  int index_in_vm_;
  Workload* workload_ = nullptr;
  VcpuState state_ = VcpuState::kDone;
  Sched sched_;
  EngineState eng_;
  Totals totals_;
};

}  // namespace atcsim::virt
