#include "cluster/control/migrator.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "virt/engine.h"
#include "virt/vcpu.h"
#include "virt/workload_api.h"

namespace atcsim::cluster::control {

using sim::SimTime;

Migrator::Migrator(net::VirtualNetwork& net,
                   std::vector<std::int32_t> node_shard)
    : net_(&net), node_shard_(std::move(node_shard)) {}

bool Migrator::can_migrate(const virt::Vm& vm) const {
  if (!net_->platform().hosts(vm)) return false;
  if (vm.is_dom0() || vm.global_id() < 0) return false;
  for (const virt::Vcpu& v : vm.vcpus()) {
    // A VCPU with no workload idles forever: nothing to expel or re-arm,
    // so it never blocks a move (single-app VMs pad to vcpus_per_vm).
    const virt::Workload* wl = v.workload();
    if (wl != nullptr && !wl->migratable()) return false;
  }
  return true;
}

SimTime Migrator::copy_duration() const {
  const virt::ModelParams& mp = net_->params();
  const SimTime copy =
      mp.migration_downtime_floor +
      static_cast<SimTime>(static_cast<double>(mp.migration_ws_bytes) /
                           mp.nic_bandwidth_bps * 1e9) +
      mp.wire_latency;
  // Fabric legality: a migration call posted at decision time t comes due
  // at t + copy, which must clear the round horizon — at least the
  // lookahead (one wire latency) past t.  The clamp keeps a dom0 packet
  // cost of margin on top.  Any physical copy already dwarfs it; it only
  // guards degenerate parameters.
  return std::max(copy, mp.dom0_packet_cost + mp.wire_latency);
}

SimTime Migrator::migrate(virt::Vm& vm, std::int32_t dest_node_global) {
  assert(can_migrate(vm));
  virt::Platform& platform = net_->platform();
  sim::Simulation& sim = net_->simulation();
  net::ShardFabric* fabric = net_->fabric();
  const int shard = net_->shard();
  const SimTime now = sim.now();
  const SimTime t_r = now + copy_duration();
  const std::int32_t dest_shard =
      node_shard_[static_cast<std::size_t>(dest_node_global)];
  assert(dest_node_global != platform.global_node_id(vm.node()) &&
         "migrating a VM to its own host");
  assert((dest_shard == shard || fabric != nullptr) &&
         "a cross-shard move needs the fabric");

  ATCSIM_TRACE(sim.trace(), [&] {
    obs::TraceEvent e;
    e.time = now;
    e.cat = obs::TraceCat::kMigration;
    e.type = obs::ev::kMigStart;
    e.node = vm.node().id().value;
    e.vm = vm.id().value;
    e.a0 = dest_node_global;
    e.a1 = platform.params().migration_ws_bytes;
    return e;
  }());

  auto bundle = platform.engine().pause_and_expel(vm, dest_node_global);
  ++migrations_;

  // One call at t_r on the destination shard.  It owns the bundle, so a
  // run that ends inside the copy window frees the bundle with the event
  // queue or the fabric; the platform that created the VM frees the VM.
  virt::Platform* dest =
      dest_shard == shard ? &platform : &fabric->network(dest_shard).platform();
  sim::InlineCallback adopt = [dest, owned = std::move(bundle)] {
    virt::MigrationBundle& b = *owned;
    dest->engine().adopt_and_resume(
        b, virt::NodeId{b.dest_node_global - dest->config().node_id_offset});
  };
  if (dest_shard == shard) {
    sim.call_at(t_r, std::move(adopt));
  } else {
    fabric->post_call(shard, dest_shard, t_r, std::move(adopt));
  }
  return t_r;
}

}  // namespace atcsim::cluster::control
