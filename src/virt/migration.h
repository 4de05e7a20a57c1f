// Live-migration payload shared by the engine and the cluster control
// plane.
//
// Only guests that no packet addresses migrate (Workload::migratable), so
// nothing routes by where a moving guest is: a packet's route is its
// destination VM's own node, which never changes for such a guest
// (DESIGN.md §12).
//
// MigrationBundle is the stop-and-copy payload: a plain pointer to the Vm
// (its records never move, so credits, mailbox contents and per-VCPU
// engine state travel for free) plus the state only the source engine
// knows — which VCPUs were runnable and which workload timers were
// pending, with their remaining delays.  A move changes where the VM is
// hosted, not who owns it: the platform that created it keeps its records
// in its arena and destroys it, also when a run ends with it in flight.
#pragma once

#include <cstdint>
#include <vector>

#include "simcore/time.h"
#include "virt/vm.h"

namespace atcsim::virt {

class SyncEvent;

/// Everything that travels in a stop-and-copy migration.  Produced by
/// Engine::pause_and_expel on the source, consumed by Engine::adopt_and_resume
/// on the destination.  The destination shard's adopt call owns it until
/// then (a pending event, or a ShardFabric call in flight to another
/// shard).
struct MigrationBundle {
  Vm* vm = nullptr;  ///< its global id names the guest; not owned
  std::int32_t dest_node_global = -1;
  sim::SimTime depart_time = 0;

  /// Workload timers of the VM (Engine::signal_in on an event bound to it)
  /// that were pending at expel; re-armed on the destination engine with
  /// their remaining delay.
  struct PendingTimer {
    SyncEvent* ev = nullptr;
    sim::SimTime remaining = 0;
  };
  std::vector<PendingTimer> timers;

  /// Pre-pause runnability per VCPU (by position in vm->vcpus()); restored
  /// at adopt so a compute-mid-flight VCPU resumes and a blocked one stays
  /// blocked until its (travelled) event signals.
  std::vector<bool> vcpu_runnable;

  /// Diagnostics / invariants: total credit balance at expel (credits are
  /// conserved across the move).
  double credits_total = 0.0;
};

}  // namespace atcsim::virt
