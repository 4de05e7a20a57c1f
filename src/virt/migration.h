// Live-migration plumbing shared by the engine, the network and the
// cluster control plane.
//
// LocationDirectory answers "where does traffic for guest `gid` go right
// now?" as a pure function of simulated time, identically on every shard:
//  * every guest VM that can be addressed across nodes carries a global id
//    assigned in creation order (Vm::global_id);
//  * a migration decided at time t with arrival time t_r keeps routing at
//    the SOURCE node for the whole copy window [t, t_r) — on every shard —
//    and switches to the destination at t_r (the source shard annotates the
//    transit so packets landing at the source mid-copy are forwarded with
//    an arrival strictly after t_r; every other shard settles its replica
//    with one call at t_r and never needs the annotation).
// Because all shards apply the same update at the same simulated time,
// routing decisions — and therefore metrics — cannot depend on where the
// shard boundaries fall (DESIGN.md §12).
//
// MigrationBundle is the stop-and-copy payload: the Vm object itself
// (heap-stable, so credits, mailbox contents and per-VCPU engine state
// travel for free) plus the state only the source engine knows — which
// VCPUs were runnable and which workload timers were pending, with their
// remaining delays.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/time.h"
#include "virt/vm.h"

namespace atcsim::virt {

class SyncEvent;

/// Routing entry for one guest, by global id.
struct VmLocation {
  std::int32_t shard = -1;        ///< shard whose node currently receives
  std::int32_t node_global = -1;  ///< global node id traffic routes to
  /// End of the copy window; routing stays at node_global until this time.
  /// <= now means settled (not in transit).
  sim::SimTime moving_until = 0;
  // Destination while in transit (valid only when moving_until > now; set
  // on the source shard by begin_move — the other shards skip the transit
  // state entirely and jump to the destination at settle time).
  std::int32_t dest_shard = -1;
  std::int32_t dest_node_global = -1;

  bool registered() const { return node_global >= 0; }
};

/// Per-shard replica of the guest location table.  All replicas apply the
/// same updates at the same simulated times, so they agree at every instant.
class LocationDirectory {
 public:
  void register_vm(std::int64_t gid, std::int32_t shard,
                   std::int32_t node_global) {
    grow(gid);
    VmLocation& loc = locs_[static_cast<std::size_t>(gid)];
    assert(!loc.registered() && "global id registered twice");
    loc.shard = shard;
    loc.node_global = node_global;
    loc.moving_until = 0;
  }

  const VmLocation& at(std::int64_t gid) const {
    assert(gid >= 0 && static_cast<std::size_t>(gid) < locs_.size());
    assert(locs_[static_cast<std::size_t>(gid)].registered());
    return locs_[static_cast<std::size_t>(gid)];
  }

  bool knows(std::int64_t gid) const {
    return gid >= 0 && static_cast<std::size_t>(gid) < locs_.size() &&
           locs_[static_cast<std::size_t>(gid)].registered();
  }

  /// Source shard, at decision time t: marks the copy window.  Routing
  /// stays at the current node until `until` (= t_r).
  void begin_move(std::int64_t gid, sim::SimTime until,
                  std::int32_t dest_shard, std::int32_t dest_node_global) {
    VmLocation& loc = mut(gid);
    assert(loc.moving_until <= until && "overlapping migrations of one VM");
    loc.moving_until = until;
    loc.dest_shard = dest_shard;
    loc.dest_node_global = dest_node_global;
  }

  /// Any shard, at t_r: the guest now lives at (shard, node_global).
  void settle(std::int64_t gid, std::int32_t shard,
              std::int32_t node_global) {
    VmLocation& loc = mut(gid);
    loc.shard = shard;
    loc.node_global = node_global;
  }

  std::size_t size() const { return locs_.size(); }

 private:
  VmLocation& mut(std::int64_t gid) {
    assert(knows(gid));
    return locs_[static_cast<std::size_t>(gid)];
  }
  void grow(std::int64_t gid) {
    assert(gid >= 0);
    if (static_cast<std::size_t>(gid) >= locs_.size()) {
      locs_.resize(static_cast<std::size_t>(gid) + 1);
    }
  }

  std::vector<VmLocation> locs_;  // by global id
};

/// Everything that travels in a stop-and-copy migration.  Produced by
/// Engine::pause_and_expel on the source, consumed by Engine::adopt_and_resume
/// on the destination.  The destination shard's migration call owns it
/// until then (a pending event, or a ShardFabric call in flight to another
/// shard).
struct MigrationBundle {
  std::unique_ptr<Vm> vm;  ///< its global id names the guest
  std::int32_t dest_node_global = -1;
  sim::SimTime depart_time = 0;

  /// Workload timers (Engine::signal_in with an owner) that were pending at
  /// expel; re-armed on the destination engine with their remaining delay.
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
