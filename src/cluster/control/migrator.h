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
// dom0 forwards in-flight traffic after the guest lands.  At t_r all
// replicas settle atomically in virtual time via fabric control records
// (kVmTransfer carries the bundle to the destination shard, kLocationUpdate
// fans out to bystander shards).  The copy-duration clamp
// max(..., dom0_packet_cost + wire_latency) keeps the control records' due
// times at least one lookahead past their post, beyond the conservative
// synchronizer's round horizon.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.h"
#include "net/network.h"
#include "simcore/time.h"
#include "virt/migration.h"
#include "virt/platform.h"

namespace atcsim::cluster::control {

class Migrator {
 public:
  /// One Migrator per shard stack; all pointers must outlive it.
  struct Context {
    virt::Platform* platform = nullptr;
    net::VirtualNetwork* network = nullptr;
    virt::LocationDirectory* directory = nullptr;
    net::ShardFabric* fabric = nullptr;  ///< null in unsharded runs
    int shard = 0;
    int total_shards = 1;
    /// Global node id -> owning shard.  May be empty when total_shards == 1.
    std::vector<std::int32_t> node_shard;
  };

  explicit Migrator(Context ctx);

  /// Installs this migrator as the network's fabric control-record handler
  /// (kVmTransfer / kLocationUpdate dispatch).  Call once before running.
  void install();

  /// Whether `vm` can be moved right now: a registered guest (not dom0),
  /// not already in transit, every loaded VCPU's workload declares
  /// migratable() (idle VCPUs never block a move), and the hosting
  /// scheduler supports migration.
  bool can_migrate(const virt::Vm& vm) const;

  /// Stop-and-copy `vm` (resident on this shard) to `dest_node_global`.
  /// Caller must have checked can_migrate().  Returns the resume time t_r.
  sim::SimTime migrate(virt::Vm& vm, std::int32_t dest_node_global);

  /// Pause window of a guest with the ModelParams::migration_ws_bytes
  /// working set.
  sim::SimTime copy_duration() const;

  std::uint64_t migrations_started() const { return migrations_; }
  std::uint64_t migrations_adopted() const { return adoptions_; }

 private:
  void on_control(net::ShardFabric::RemotePacket& pkt);
  /// Schedules settle_and_adopt at `t_r`; the pending event owns `bundle`,
  /// so a run that ends inside the copy window still frees the VM.
  void adopt_at(sim::SimTime t_r,
                std::unique_ptr<virt::MigrationBundle> bundle);
  void settle_and_adopt(virt::MigrationBundle& bundle);

  Context ctx_;
  std::uint64_t migrations_ = 0;
  std::uint64_t adoptions_ = 0;
};

}  // namespace atcsim::cluster::control
