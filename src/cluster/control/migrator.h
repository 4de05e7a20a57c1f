// Live-migration primitive of the cluster control plane.
//
// Stop-and-copy model: at decision time t the VM is paused and expelled from
// its source host (Engine::pause_and_expel), and resumes on the destination
// at t_r = t + copy_duration, where the copy window covers the stop-and-copy
// downtime floor plus the working set crossing the fabric plus one wire
// latency.  The cost is pure latency — the NIC busy intervals are not
// perturbed — so a same-shard and a cross-shard move of the same guest are
// metrically identical and the shard map stays invisible in the results.
//
// Routing during the window [t, t_r) follows the directory-update-at-t_r
// rule (DESIGN.md §12): every shard keeps routing to the SOURCE node, whose
// dom0 forwards in-flight traffic after the guest lands.  At t_r every
// shard runs one call: the destination's settles its directory replica and
// adopts the VM, every other shard's settles its replica.  The source runs
// its own shard's call as a local event and posts the others through the
// fabric.  The copy-duration clamp max(..., dom0_packet_cost +
// wire_latency) keeps those calls' due times at least one lookahead past
// their post, beyond the conservative synchronizer's round horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "simcore/time.h"
#include "virt/vm.h"

namespace atcsim::cluster::control {

class Migrator {
 public:
  /// One Migrator per shard.  Platform, directory replica, fabric and
  /// shard come from `net`, which must outlive it; `node_shard` maps every
  /// global node id to its owning shard.
  Migrator(net::VirtualNetwork& net, std::vector<std::int32_t> node_shard);

  /// Whether `vm` can be moved right now: a registered guest (not dom0),
  /// not already in transit, and every loaded VCPU's workload declares
  /// migratable() (idle VCPUs never block a move).
  bool can_migrate(const virt::Vm& vm) const;

  /// Stop-and-copy `vm` (resident on this shard) to `dest_node_global`.
  /// Caller must have checked can_migrate().  Returns the resume time t_r.
  sim::SimTime migrate(virt::Vm& vm, std::int32_t dest_node_global);

  /// Pause window of a guest with the ModelParams::migration_ws_bytes
  /// working set.
  sim::SimTime copy_duration() const;

  std::uint64_t migrations_started() const { return migrations_; }

 private:
  net::VirtualNetwork* net_;
  std::vector<std::int32_t> node_shard_;
  std::uint64_t migrations_ = 0;
};

}  // namespace atcsim::cluster::control
