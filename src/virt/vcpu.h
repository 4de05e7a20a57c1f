// Virtual CPU: the schedulable entity.
#pragma once

#include <cstdint>
#include <type_traits>

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
enum class CreditPrio : std::uint8_t {
  kBoost = 0,
  kUnder = 1,
  kOver = 2,
};

class Vcpu {
 public:
  Vcpu(VcpuId id, Vm& vm) : id_(id), vm_(&vm) {}

  // Run queues, PCPUs and waiter lists hold VCPU addresses, so a copy is
  // always a bug.  Vm builds its VCPUs in place in its arena array.
  Vcpu(const Vcpu&) = delete;
  Vcpu& operator=(const Vcpu&) = delete;

  VcpuId id() const { return id_; }
  Vm& vm() { return *vm_; }
  const Vm& vm() const { return *vm_; }
  /// Position in the VM's VCPU array (defined in vm.h: the array never
  /// reallocates, so the offset is the index).
  int index_in_vm() const;

  /// Binds the guest program.  Non-owning: applications own their rank
  /// workloads.  Must be set before Engine::start().
  void set_workload(Workload* w) { workload_ = w; }
  Workload* workload() { return workload_; }
  const Workload* workload() const { return workload_; }

  VcpuState state() const { return state_; }
  bool runnable() const { return state_ == VcpuState::kRunnable; }
  bool running() const { return state_ == VcpuState::kRunning; }

  /// Intrusive run-queue handle, owned by the node's scheduler
  /// (sched::IndexedRunQueues).  Gives O(1) membership tests and unlinks:
  /// `queue`/`cls` are -1 while the VCPU is not on any run queue.  `vm` is
  /// the dense node-local VM index assigned at scheduler attach; it backs
  /// the per-queue sibling counters that make Balance placement O(P).
  /// `queue` is 16 bits: ScenarioBuilder caps pcpus_per_node at INT16_MAX.
  struct RunQueueLink {
    Vcpu* prev = nullptr;
    Vcpu* next = nullptr;
    std::int32_t vm = -1;     ///< dense node-local VM index (set at attach)
    std::int16_t queue = -1;  ///< run-queue index (pcpu index_in_node)
    std::int8_t cls = -1;     ///< CreditPrio bucket it was filed under
    /// Credit BOOST, granted at wake and consumed by the next dispatch.
    /// Scheduler state, not queue position: it sits here to fill the
    /// link's last byte.
    bool boosted = false;
  };

  // ---------------------------------------------------------------------
  // Engine/scheduler working state.  Public struct rather than friend
  // spaghetti: only the engine and schedulers touch it.
  struct Sched {
    double credits = 0.0;
    PcpuId queue;      ///< run-queue (PCPU) this VCPU is assigned to
    PcpuId last_pcpu;  ///< last PCPU it ran on (cache affinity)
    RunQueueLink rq;   ///< intrusive run-queue position (scheduler-owned)
  };
  Sched& sched() { return sched_; }
  const Sched& sched() const { return sched_; }

  /// The current action is stored as its kind plus its event: a compute
  /// action's duration is copied into compute_left when it is fetched.
  /// When the current stint and segment began lives on the PCPU
  /// (Pcpu::EngineState), since only a running VCPU has either.
  struct EngineState {
    SyncEvent* event = nullptr;         ///< kSpinWait / kBlockWait target
    sim::SimTime compute_left = 0;      ///< remaining work of kCompute
    sim::SimTime cache_debt = 0;        ///< pending refill penalty to pay
    sim::SimTime last_stint = 0;        ///< length of the previous stint
    sim::SimTime spin_episode_start = 0;///< wall start of current spin wait
    class Pcpu* on_pcpu = nullptr;      ///< set while kRunning
    /// Intrusive SyncEvent waiter-list link (see sync_event.h); meaningful
    /// only while wait_registered.
    Vcpu* next_waiter = nullptr;
    Action::Kind kind = Action::Kind::kExit;  ///< of the current action
    bool action_valid = false;          ///< false until first fetch
    bool in_spin_episode = false;
    bool wait_registered = false;       ///< in its event's waiter list
  };
  EngineState& eng() { return eng_; }
  const EngineState& eng() const { return eng_; }

  // Engine-only state transitions (public for the engine; see engine.cc).
  void set_state(VcpuState s) { state_ = s; }
  /// Migration rewiring (Platform::adopt_vm only).
  void set_id(VcpuId id) { id_ = id; }

 private:
  // 8 + 16 + 40 + 64 = 128 bytes, 7 of them padding: the id and the
  // one-byte state share the first word, the run-queue link packs its VM
  // index, queue, class and BOOST flag into one word, and EngineState's
  // action kind and three flags share its last.
  VcpuId id_;
  VcpuState state_ = VcpuState::kDone;
  Vm* vm_;
  Workload* workload_ = nullptr;
  Sched sched_;
  EngineState eng_;
};

// VMs hold their VCPUs in one contiguous array; every byte here is paid
// once per simulated VCPU (540,672 of them at 16384 nodes).
static_assert(sizeof(Vcpu) <= 128, "Vcpu outgrew two cache lines");
// The array lives in the arena, which runs no destructors.
static_assert(std::is_trivially_destructible_v<Vcpu>,
              "Vm would have to destroy its VCPUs");

}  // namespace atcsim::virt
