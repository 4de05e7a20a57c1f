#include "net/network.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace atcsim::net {

using sim::SimTime;

namespace {

#if ATCSIM_TRACE_ENABLED
obs::TraceEvent net_event(SimTime now, std::uint8_t type, std::int32_t node,
                          const virt::Vm* vm, std::int64_t a0,
                          std::int64_t a1 = 0) {
  obs::TraceEvent e;
  e.time = now;
  e.cat = obs::TraceCat::kNet;
  e.type = type;
  e.node = node;
  if (vm != nullptr) e.vm = vm->id().value;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}
#endif

}  // namespace

// ---------------------------------------------------------------- Dom0Backend

namespace {

/// Initial capacity of each dom0 backend's job ring (expected in-flight
/// netback/blkback jobs per node), a power of two.  The ring doubles when
/// it fills — tracing a net.ring_grow event — so this only sets the
/// cold-start size.  Most nodes never queue more than four jobs; the few
/// busier ones grow during warm-up.  At 48 B/slot it costs
/// 16384 nodes * 8 * 48 B = 6 MiB.
constexpr std::size_t kDom0RingSlots = 8;
static_assert((kDom0RingSlots & (kDom0RingSlots - 1)) == 0,
              "the ring wraps with a mask");

}  // namespace

Dom0Backend::Dom0Backend(VirtualNetwork& net, virt::Node& node)
    : net_(&net),
      node_(&node),
      jobs_(kDom0RingSlots),
      idle_wait_(net.engine()) {}

void Dom0Backend::grow_ring() {
  const std::size_t old_cap = jobs_.size();
  std::vector<Job> bigger(old_cap * 2);
  for (std::size_t i = 0; i < job_count_; ++i) {
    bigger[i] = std::move(jobs_[(head_ + i) & (old_cap - 1)]);
  }
  jobs_ = std::move(bigger);
  head_ = 0;
  ATCSIM_TRACE(net_->simulation().trace(),
               net_event(net_->simulation().now(), obs::ev::kRingGrow,
                         node_->id().value, nullptr,
                         static_cast<std::int64_t>(jobs_.size()),
                         static_cast<std::int64_t>(old_cap)));
}

void Dom0Backend::enqueue(Job job) {
  if (job_count_ == jobs_.size()) grow_ring();
  // Capacity is always a power of two, so the wrap is a mask, not a divide.
  jobs_[(head_ + job_count_) & (jobs_.size() - 1)] = std::move(job);
  ++job_count_;
  // Ring the event channel: wake dom0 if it is idle-blocked.
  if (idle_armed_ && !idle_wait_.signalled()) {
    idle_wait_.signal();
  }
}

virt::Action Dom0Backend::next(virt::Vcpu& /*self*/) {
  // The previous Compute modelled the CPU cost of a job; apply its effect.
  if (pending_effect_) {
    auto effect = std::move(pending_effect_);
    effect();
  }
  if (job_count_ > 0) {
    Job job = std::move(jobs_[head_]);
    head_ = (head_ + 1) & (jobs_.size() - 1);
    --job_count_;
    // Snap a drained ring back to slot 0: head/tail otherwise march through
    // the whole buffer even at depth 1-2, sweeping cap * sizeof(Job) bytes
    // of cache per lap (at 512 nodes that is megabytes); a shallow queue
    // should live in its first few (hot) slots.
    if (job_count_ == 0) head_ = 0;
    pending_effect_ = std::move(job.effect);
    return virt::Action::compute(job.cpu_cost);
  }
  // Idle: halt until the next event-channel notification.  The event is
  // reused across idle transitions; `idle_armed_` keeps enqueue() from
  // signalling (and tracing) before dom0 has ever gone idle, matching the
  // old allocate-on-idle behaviour.
  idle_wait_.reset();
  idle_armed_ = true;
  return virt::Action::block_wait(idle_wait_);
}

// ------------------------------------------------------------ VirtualNetwork

VirtualNetwork::VirtualNetwork(virt::Platform& platform)
    : platform_(&platform), nodes_(platform.nodes().size()) {}

VirtualNetwork::~VirtualNetwork() = default;

void VirtualNetwork::attach() {
  assert(!attached_);
  attached_ = true;
  platform_->set_network(this);
  for (std::size_t n = 0; n < platform_->nodes().size(); ++n) {
    virt::Node& node = *platform_->nodes()[n];
    nodes_[n].backend = std::make_unique<Dom0Backend>(*this, node);
    assert(node.dom0() != nullptr && node.dom0()->vcpu_count() >= 1);
    node.dom0()->vcpus()[0].set_workload(nodes_[n].backend.get());
  }
}

Dom0Backend& VirtualNetwork::backend_of(const virt::Vm& vm) {
  return *nodes_[static_cast<std::size_t>(vm.node().index())].backend;
}

VirtualNetwork::NodeState& VirtualNetwork::state_of(const virt::Vm& vm) {
  return nodes_[static_cast<std::size_t>(vm.node().index())];
}

SimTime VirtualNetwork::packet_cpu_cost(std::uint64_t bytes) const {
  const auto& mp = params();
  return mp.dom0_packet_cost +
         static_cast<SimTime>(bytes / 1024) * mp.dom0_per_kib_cost;
}

SimTime VirtualNetwork::serialize(SimTime now, SimTime& busy_until,
                                  std::uint64_t bytes, double bandwidth_bps) {
  const SimTime start = std::max(now, busy_until);
  const SimTime xfer = static_cast<SimTime>(
      static_cast<double>(bytes) / bandwidth_bps * 1e9);
  busy_until = start + xfer;
  return busy_until;
}

// ------------------------------------------------------- descriptor lifecycle

VirtualNetwork::PacketRef VirtualNetwork::acquire(std::uint64_t bytes,
                                                  virt::Vm* dst,
                                                  std::int32_t src_node,
                                                  std::int32_t dst_node,
                                                  sim::InlineCallback done) {
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Packet& p = pool_[slot];
  p.bytes = bytes;
  p.dst = dst;
  p.src_node = src_node;
  p.dst_node = dst_node;
  p.done = std::move(done);
  p.next_free = kNilSlot;
  return PacketRef{slot, p.generation};
}

VirtualNetwork::Packet& VirtualNetwork::desc(PacketRef r) {
  assert(r.slot < pool_.size());
  Packet& p = pool_[r.slot];
  assert(p.generation == r.generation && "stale PacketRef (slot recycled)");
  return p;
}

sim::InlineCallback VirtualNetwork::release(PacketRef r) {
  Packet& p = desc(r);
  sim::InlineCallback cb = std::move(p.done);
  ++p.generation;  // stale handles now trip the desc() assert
  p.dst = nullptr;
  p.next_free = free_head_;
  free_head_ = r.slot;
  return cb;
}

void VirtualNetwork::finish(PacketRef r) {
  auto cb = release(r);
  cb();
}

// ------------------------------------------------------------ per-hop steps
//
// Each hop is scheduled by the previous one and captures only {this, r}
// (16 bytes), so the whole path moves one InlineCallback — the caller's
// completion, parked in the descriptor — with zero allocation.

void VirtualNetwork::tx_effect(PacketRef r) {
  Packet& p = desc(r);
  if (p.src_node == p.dst_node) {
    // Bridged loopback: still through dom0, but no NIC/wire.
    enqueue_rx(r);
    return;
  }
  const auto& mp = params();
  const SimTime now = simulation().now();
  const SimTime tx_done = serialize(
      now, nodes_[static_cast<std::size_t>(p.src_node)].nic_tx_busy, p.bytes,
      mp.nic_bandwidth_bps);
  const SimTime arrive = tx_done + mp.wire_latency;
  ATCSIM_TRACE(
      simulation().trace(),
      net_event(now, obs::ev::kWire,
                platform_->nodes()[static_cast<std::size_t>(p.src_node)]
                    ->id()
                    .value,
                nullptr, static_cast<std::int64_t>(p.bytes), p.dst_node));
  if (p.dst_node == kRemoteNode) {
    // Destination VM lives on another shard: the packet leaves this shard
    // after the source NIC, due at the remote NIC one wire latency later —
    // exactly the lookahead the round synchronizer relies on.
    virt::Vm* dst = p.dst;
    const std::uint64_t bytes = p.bytes;
    // Re-resolve at post time: the guest may have migrated while the tx
    // job sat in the dom0 ring.  (send() marks only registered guests
    // remote, so the directory is there.)
    const virt::VmLocation& loc = directory_->at(dst->global_id());
    if (loc.shard == shard_) {
      // It moved *onto* this shard — the wire hop stays local after all,
      // at the same arrival time a fabric round trip would have produced.
      p.dst_node = loc.node_global - node_id_offset();
      simulation().call_at(arrive, [this, r] { rx_arrive(r); });
      return;
    }
    fabric_->post_packet(shard_, loc.shard, *dst, loc.node_global, arrive,
                         bytes, release(r));
    return;
  }
  simulation().call_at(arrive, [this, r] { rx_arrive(r); });
}

void VirtualNetwork::receive_remote(ShardFabric::RemotePacket& pkt) {
  // Lookahead safety: a remote packet is delivered at its canonical point —
  // after every local event at or before its due time — so the clock is at
  // most pkt.due here, with equality the common case (ShardExec::advance_to
  // runs local events up to the due time before delivering the batch).
  assert(pkt.due >= simulation().now() &&
         "cross-shard packet due in the past: lookahead violated");
  if (pkt.kind != ShardFabric::Kind::kPacket) {
    // Migration control plane: hand the record to the shard's Migrator.
    // Control records ride the same canonical (due, src, seq) order as
    // packets, so the handoff point is deterministic.
    assert(control_handler_ && "control record arrived with no handler");
    control_handler_(pkt);
    return;
  }
  // Packets carry the global node the sender's directory resolved.
  assert(pkt.dst_node_global >= 0);
  const PacketRef r =
      acquire(pkt.bytes, pkt.dst, -1, pkt.dst_node_global - node_id_offset(),
              std::move(pkt.done));
  simulation().call_at(pkt.due, [this, r] { rx_arrive(r); });
}

void VirtualNetwork::rx_arrive(PacketRef r) {
  Packet& p = desc(r);
  const SimTime rx_done = serialize(
      simulation().now(),
      nodes_[static_cast<std::size_t>(p.dst_node)].nic_rx_busy, p.bytes,
      params().nic_bandwidth_bps);
  simulation().call_at(rx_done, [this, r] { enqueue_rx(r); });
}

void VirtualNetwork::enqueue_rx(PacketRef r) {
  // Keyed by the node the packet was *addressed* to (p.dst_node), not the
  // destination VM's current node: the guest may have migrated while the
  // packet was on the wire, in which case this node's dom0 forwards it.
  Packet& p = desc(r);
  ATCSIM_TRACE(
      simulation().trace(),
      net_event(simulation().now(), obs::ev::kGuestRx,
                platform_->nodes()[static_cast<std::size_t>(p.dst_node)]
                    ->id()
                    .value,
                p.dst, static_cast<std::int64_t>(p.bytes)));
  nodes_[static_cast<std::size_t>(p.dst_node)].backend->enqueue(
      Dom0Backend::Job{packet_cpu_cost(p.bytes), [this, r] { deliver(r); }});
}

void VirtualNetwork::deliver(PacketRef r) {
  Packet& p = desc(r);
  if (directory_ != nullptr && p.dst->global_id() >= 0) {
    const virt::VmLocation& loc = directory_->at(p.dst->global_id());
    const bool in_transit = simulation().now() < loc.moving_until;
    const std::int32_t target_node =
        in_transit ? loc.dest_node_global : loc.node_global;
    const std::int32_t here = node_id_offset() + p.dst_node;
    if (target_node != here) {
      // The guest migrated away after this packet was addressed.  This
      // node's dom0 pays one more netback job to re-route it.
      nodes_[static_cast<std::size_t>(p.dst_node)].backend->enqueue(
          Dom0Backend::Job{packet_cpu_cost(p.bytes),
                           [this, r] { forward_effect(r); }});
      return;
    }
  }
  virt::Vm* dst = p.dst;
  auto cb = release(r);
  engine().deposit(*dst, std::move(cb));
}

void VirtualNetwork::forward_effect(PacketRef r) {
  Packet& p = desc(r);
  assert(directory_ != nullptr && p.dst->global_id() >= 0);
  const virt::VmLocation& loc = directory_->at(p.dst->global_id());
  const sim::SimTime now = simulation().now();
  const bool in_transit = now < loc.moving_until;
  const std::int32_t target_shard = in_transit ? loc.dest_shard : loc.shard;
  const std::int32_t target_node =
      in_transit ? loc.dest_node_global : loc.node_global;
  // A forward chasing a guest still in transit arrives strictly after the
  // migration settles; a settled guest is one wire hop away.
  const sim::SimTime arrive =
      std::max(now, loc.moving_until) + params().wire_latency;
  ATCSIM_TRACE(simulation().trace(), [&] {
    obs::TraceEvent e;
    e.time = now;
    e.cat = obs::TraceCat::kMigration;
    e.type = obs::ev::kMigForward;
    e.node = platform_->nodes()[static_cast<std::size_t>(p.dst_node)]
                 ->id()
                 .value;
    e.vm = p.dst->id().value;
    e.a0 = static_cast<std::int64_t>(p.bytes);
    e.a1 = target_node;
    return e;
  }());
  if (target_shard == shard_) {
    p.dst_node = target_node - node_id_offset();
    simulation().call_at(arrive, [this, r] { rx_arrive(r); });
    return;
  }
  virt::Vm* dst = p.dst;
  const std::uint64_t bytes = p.bytes;
  fabric_->post_packet(shard_, target_shard, *dst, target_node, arrive, bytes,
                       release(r));
}

void VirtualNetwork::tx_out_effect(PacketRef r) {
  Packet& p = desc(r);
  const SimTime tx_done = serialize(
      simulation().now(),
      nodes_[static_cast<std::size_t>(p.src_node)].nic_tx_busy, p.bytes,
      params().nic_bandwidth_bps);
  simulation().call_at(tx_done + params().wire_latency,
                       [this, r] { finish(r); });
}

void VirtualNetwork::disk_issue(PacketRef r) {
  Packet& p = desc(r);
  NodeState& state = state_of(*p.dst);
  const auto& mp = params();
  const SimTime now = simulation().now();
  const SimTime start = std::max(now, state.disk_busy);
  const SimTime done = start + mp.disk_latency +
                       static_cast<SimTime>(static_cast<double>(p.bytes) /
                                            mp.disk_bandwidth_bps * 1e9);
  state.disk_busy = done;
  simulation().call_at(done, [this, r] { disk_done(r); });
}

void VirtualNetwork::disk_done(PacketRef r) {
  Packet& p = desc(r);
  ATCSIM_TRACE(simulation().trace(),
               net_event(simulation().now(), obs::ev::kDiskDone,
                         p.dst->node().id().value, p.dst,
                         static_cast<std::int64_t>(p.bytes)));
  virt::Vm* dst = p.dst;
  auto cb = release(r);
  engine().deposit(*dst, std::move(cb));
}

// ------------------------------------------------------------- public entry

void VirtualNetwork::send(virt::Vm& src, virt::Vm& dst, std::uint64_t bytes,
                          sim::InlineCallback on_delivered) {
  // Self-route: workloads hold whichever shard's network they were built
  // with, but a packet always originates on the shard owning its source VM.
  if (&src.node().platform() != platform_) {
    src.node().platform().network()->send(src, dst, bytes,
                                          std::move(on_delivered));
    return;
  }
  assert(attached_);
  counters_.packets += 1;
  counters_.bytes += bytes;
  platform_->mark_period_activity(src);
  src.period().io_events += 1;  // tx side counts toward the VM's I/O rate
  src.totals().io_events += 1;
  ATCSIM_TRACE(simulation().trace(),
               net_event(simulation().now(), obs::ev::kGuestTx,
                         src.node().id().value, &src,
                         static_cast<std::int64_t>(bytes), dst.id().value));
  std::int32_t dst_node;
  if (directory_ != nullptr && dst.global_id() >= 0) {
    // Route by the registered location, not dst's current platform
    // pointers: during a migration's copy phase the directory still points
    // at the source node, whose dom0 forwards anything that lands there.
    const virt::VmLocation& loc = directory_->at(dst.global_id());
    dst_node = loc.shard != shard_ ? kRemoteNode
                                   : loc.node_global - node_id_offset();
  } else {
    assert(&dst.node().platform() == platform_ &&
           "cross-shard destinations need a location-directory entry");
    dst_node = dst.node().index();
  }
  const PacketRef r = acquire(bytes, &dst, src.node().index(), dst_node,
                              std::move(on_delivered));
  backend_of(src).enqueue(
      Dom0Backend::Job{packet_cpu_cost(bytes), [this, r] { tx_effect(r); }});
}

void VirtualNetwork::inject(virt::Vm& dst, std::uint64_t bytes,
                            sim::InlineCallback on_delivered) {
  if (&dst.node().platform() != platform_) {
    dst.node().platform().network()->inject(dst, bytes,
                                            std::move(on_delivered));
    return;
  }
  assert(attached_);
  counters_.packets += 1;
  counters_.bytes += bytes;
  ATCSIM_TRACE(simulation().trace(),
               net_event(simulation().now(), obs::ev::kInject,
                         dst.node().id().value, &dst,
                         static_cast<std::int64_t>(bytes)));
  const PacketRef r = acquire(bytes, &dst, -1, dst.node().index(),
                              std::move(on_delivered));
  simulation().call_in(params().wire_latency, [this, r] { rx_arrive(r); });
}

void VirtualNetwork::send_out(virt::Vm& src, std::uint64_t bytes,
                              sim::InlineCallback on_exit_fabric) {
  if (&src.node().platform() != platform_) {
    src.node().platform().network()->send_out(src, bytes,
                                              std::move(on_exit_fabric));
    return;
  }
  assert(attached_);
  counters_.packets += 1;
  counters_.bytes += bytes;
  platform_->mark_period_activity(src);
  src.period().io_events += 1;
  src.totals().io_events += 1;
  ATCSIM_TRACE(simulation().trace(),
               net_event(simulation().now(), obs::ev::kGuestTx,
                         src.node().id().value, &src,
                         static_cast<std::int64_t>(bytes), -1));
  const PacketRef r = acquire(bytes, nullptr, src.node().index(), -1,
                              std::move(on_exit_fabric));
  backend_of(src).enqueue(Dom0Backend::Job{packet_cpu_cost(bytes),
                                           [this, r] { tx_out_effect(r); }});
}

void VirtualNetwork::submit_disk(virt::Vm& vm, std::uint64_t bytes,
                                 sim::InlineCallback on_complete) {
  if (&vm.node().platform() != platform_) {
    vm.node().platform().network()->submit_disk(vm, bytes,
                                                std::move(on_complete));
    return;
  }
  assert(attached_);
  counters_.disk_ops += 1;
  ATCSIM_TRACE(simulation().trace(),
               net_event(simulation().now(), obs::ev::kDiskSubmit,
                         vm.node().id().value, &vm,
                         static_cast<std::int64_t>(bytes)));
  const PacketRef r = acquire(bytes, &vm, vm.node().index(),
                              vm.node().index(), std::move(on_complete));
  backend_of(vm).enqueue(
      Dom0Backend::Job{params().dom0_disk_cost, [this, r] { disk_issue(r); }});
}

}  // namespace atcsim::net
