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
// Only guests that no packet addresses migrate (Workload::migratable), so
// no traffic follows a moving guest and the other shards never learn of
// the move: it is one call at t_r on the destination shard, which adopts
// the VM.  The source schedules it with call_at when the destination is
// its own shard and posts it through the fabric otherwise.  The
// copy-duration clamp max(..., dom0_packet_cost + wire_latency) keeps a
// posted call's due time at least one lookahead past its post, beyond the
// conservative synchronizer's round horizon (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "simcore/time.h"
#include "virt/vm.h"

namespace atcsim::cluster::control {

class Migrator {
 public:
  /// One Migrator per shard.  Platform, fabric and shard come from `net`,
  /// which must outlive it; `node_shard` maps every global node id to its
  /// owning shard.
  Migrator(net::VirtualNetwork& net, std::vector<std::int32_t> node_shard);

  /// Whether `vm` can be moved right now: a scenario guest (not dom0)
  /// resident on this shard's platform — so not in transit, and not on
  /// another shard — whose every loaded VCPU's workload declares
  /// migratable() (idle VCPUs never block a move).  Residency is read from
  /// this shard's platform alone, never from the VM, which another shard
  /// may be adopting.
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
