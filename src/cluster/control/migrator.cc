#include "cluster/control/migrator.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "virt/engine.h"
#include "virt/vcpu.h"
#include "virt/workload_api.h"

namespace atcsim::cluster::control {

using sim::SimTime;

Migrator::Migrator(Context ctx) : ctx_(std::move(ctx)) {
  assert(ctx_.platform != nullptr && ctx_.network != nullptr &&
         ctx_.directory != nullptr);
  assert((ctx_.total_shards == 1 || ctx_.fabric != nullptr) &&
         "sharded runs need the fabric for control records");
}

void Migrator::install() {
  ctx_.network->set_control_handler(
      [this](net::ShardFabric::RemotePacket& pkt) { on_control(pkt); });
}

bool Migrator::can_migrate(const virt::Vm& vm) const {
  if (vm.is_dom0() || vm.global_id() < 0) return false;
  const virt::VmLocation& loc = ctx_.directory->at(vm.global_id());
  if (ctx_.platform->simulation().now() < loc.moving_until) return false;
  for (const virt::Vcpu& v : vm.vcpus()) {
    // A VCPU with no workload idles forever: nothing to expel or re-arm,
    // so it never blocks a move (single-app VMs pad to vcpus_per_vm).
    const virt::Workload* wl = v.workload();
    if (wl != nullptr && !wl->migratable()) return false;
  }
  return true;
}

SimTime Migrator::copy_duration() const {
  const virt::ModelParams& mp = ctx_.platform->params();
  const SimTime copy =
      mp.migration_downtime_floor +
      static_cast<SimTime>(static_cast<double>(mp.migration_ws_bytes) /
                           mp.nic_bandwidth_bps * 1e9) +
      mp.wire_latency;
  // Fabric legality: a control record posted at decision time t comes due
  // at t + copy, which must clear the round horizon — at least the
  // lookahead (one wire latency) past t.  The clamp keeps a dom0 packet
  // cost of margin on top.  Any physical copy already dwarfs it; it only
  // guards degenerate parameters.
  return std::max(copy, mp.dom0_packet_cost + mp.wire_latency);
}

SimTime Migrator::migrate(virt::Vm& vm, std::int32_t dest_node_global) {
  assert(can_migrate(vm));
  virt::Platform& platform = *ctx_.platform;
  virt::Engine& engine = platform.engine();
  sim::Simulation& sim = platform.simulation();
  const std::int64_t gid = vm.global_id();
  const SimTime now = sim.now();
  const SimTime t_r = now + copy_duration();
  const int dest_shard =
      ctx_.node_shard.empty()
          ? ctx_.shard
          : ctx_.node_shard[static_cast<std::size_t>(dest_node_global)];
  assert(dest_node_global != platform.global_node_id(vm.node()) &&
         "migrating a VM to its own host");

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

  auto bundle = engine.pause_and_expel(vm, dest_node_global, t_r);
  ctx_.directory->begin_move(gid, t_r, dest_shard, dest_node_global);
  ++migrations_;

  if (dest_shard == ctx_.shard) {
    // Local adoption: one timer settles the directory and resumes the VM.
    adopt_at(t_r, std::move(bundle));
    return t_r;
  }

  // Cross-shard: ship the bundle to the destination shard, announce the new
  // location to every bystander shard, settle the local replica at t_r.
  {
    net::ShardFabric::RemotePacket rec;
    rec.due = t_r;
    rec.kind = net::ShardFabric::Kind::kVmTransfer;
    rec.vm_gid = gid;
    rec.dst_node_global = dest_node_global;
    rec.new_shard = dest_shard;
    rec.bundle = std::move(bundle);
    ctx_.fabric->post_control(ctx_.shard, dest_shard, std::move(rec));
  }
  for (int s = 0; s < ctx_.total_shards; ++s) {
    if (s == ctx_.shard || s == dest_shard) continue;
    net::ShardFabric::RemotePacket rec;
    rec.due = t_r;
    rec.kind = net::ShardFabric::Kind::kLocationUpdate;
    rec.vm_gid = gid;
    rec.dst_node_global = dest_node_global;
    rec.new_shard = dest_shard;
    ctx_.fabric->post_control(ctx_.shard, s, std::move(rec));
  }
  sim.call_at(t_r, [this, gid, dest_shard, dest_node_global] {
    ctx_.directory->settle(gid, dest_shard, dest_node_global);
  });
  return t_r;
}

void Migrator::adopt_at(sim::SimTime t_r,
                        std::unique_ptr<virt::MigrationBundle> bundle) {
  ctx_.platform->simulation().call_at(
      t_r, [this, owned = std::move(bundle)] { settle_and_adopt(*owned); });
}

void Migrator::settle_and_adopt(virt::MigrationBundle& bundle) {
  // Settle first: the resumed guest's first sends must already resolve to
  // the destination node.
  ctx_.directory->settle(bundle.gid, ctx_.shard, bundle.dest_node_global);
  const std::int32_t local =
      bundle.dest_node_global - ctx_.platform->config().node_id_offset;
  assert(local >= 0 &&
         static_cast<std::size_t>(local) < ctx_.platform->nodes().size());
  ctx_.platform->engine().adopt_and_resume(bundle, virt::NodeId{local});
  ++adoptions_;
}

void Migrator::on_control(net::ShardFabric::RemotePacket& pkt) {
  sim::Simulation& sim = ctx_.platform->simulation();
  switch (pkt.kind) {
    case net::ShardFabric::Kind::kVmTransfer:
      // Until now the in-flight record itself bounded this shard's horizon;
      // from here the pending adoption does.
      assert(pkt.bundle != nullptr && pkt.bundle->gid == pkt.vm_gid);
      adopt_at(pkt.due, std::move(pkt.bundle));
      break;
    case net::ShardFabric::Kind::kLocationUpdate: {
      const std::int64_t gid = pkt.vm_gid;
      const std::int32_t shard = pkt.new_shard;
      const std::int32_t node = pkt.dst_node_global;
      sim.call_at(pkt.due, [this, gid, shard, node] {
        ctx_.directory->settle(gid, shard, node);
      });
      break;
    }
    case net::ShardFabric::Kind::kPacket:
      assert(false && "data packets do not reach the control handler");
      break;
  }
}

}  // namespace atcsim::cluster::control
