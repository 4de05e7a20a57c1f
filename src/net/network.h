// Xen split-driver I/O model (Fig. 4 of the paper).
//
// Every guest packet traverses the paper's 11-step path:
//   guest (scheduled!) -> event channel -> I/O ring -> dom0 (scheduled!)
//   -> netback copy -> NIC serialization -> wire -> dst NIC -> dom0 of the
//   destination node (scheduled!) -> netback copy -> I/O ring -> event
//   channel -> destination guest (scheduled!).
// dom0 is a real VM in the node's scheduler: it blocks when idle and is
// woken (BOOST) by event-channel notifications, so every hop pays the
// scheduling waits the paper identifies as overhead sources 1-4.
//
// The same backend services blkback-style disk requests.
//
// Zero-allocation packet path (DESIGN.md §9): each in-flight packet or disk
// request is one pooled, generation-tagged descriptor holding the caller's
// completion as a single InlineCallback; every hop (dom0 job effect, NIC
// completion, wire arrival, event-channel delivery) passes only the 8-byte
// {slot, generation} handle, so the steady state of the whole path touches
// the allocator exactly zero times once the slab and the dom0 job rings have
// reached their high-water size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "simcore/inline_callback.h"
#include "virt/engine.h"
#include "virt/migration.h"
#include "virt/platform.h"
#include "virt/sync_event.h"
#include "virt/workload_api.h"

namespace atcsim::net {

class VirtualNetwork;

/// dom0's netback/blkback service loop: one per node, bound to dom0 VCPU 0.
/// Jobs (tx/rx packet processing, disk submissions) are FIFO; each costs
/// dom0 CPU time, then applies its effect (NIC push, guest delivery, ...).
class Dom0Backend : public virt::Workload {
 public:
  Dom0Backend(VirtualNetwork& net, virt::Node& node);

  struct Job {
    sim::SimTime cpu_cost = 0;
    sim::InlineCallback effect;
  };

  /// Queues a job and rings dom0's event channel.
  void enqueue(Job job);

  // virt::Workload:
  virt::Action next(virt::Vcpu& self) override;
  double cache_sensitivity() const override { return 0.3; }
  std::string name() const override { return "dom0-backend"; }

  std::size_t backlog() const { return job_count_; }
  /// Capacity of the job ring (8 slots at construction; doubles on
  /// overflow, tracing a net.ring_grow event).
  std::size_t ring_capacity() const { return jobs_.size(); }

 private:
  void grow_ring();

  VirtualNetwork* net_;
  virt::Node* node_;
  /// FIFO job ring (head_ + job_count_ entries, wrapping): a deque's chunk
  /// churn would allocate in steady state, a ring only grows.  Pre-sized at
  /// construction so cold-start growth does not pollute short benchmarks.
  std::vector<Job> jobs_;
  std::size_t head_ = 0;
  std::size_t job_count_ = 0;
  sim::InlineCallback pending_effect_;
  /// Reused across idle transitions (SyncEvent::reset); allocating a fresh
  /// event per idle would break the zero-allocation steady state.
  virt::SyncEvent idle_wait_;
  bool idle_armed_ = false;  ///< true once idle_wait_ has ever been armed
};

/// Platform-wide fabric + per-node backends.
class VirtualNetwork {
 public:
  explicit VirtualNetwork(virt::Platform& platform);
  ~VirtualNetwork();

  VirtualNetwork(const VirtualNetwork&) = delete;
  VirtualNetwork& operator=(const VirtualNetwork&) = delete;

  /// Binds each node's backend to dom0 VCPU 0 and registers this network as
  /// its platform's owning network.  Call before Engine::start().
  void attach();

  /// Joins this network to a cross-shard fabric as shard `shard`.  Called
  /// by ShardFabric::bind; unsharded networks never see it.
  void bind_fabric(ShardFabric* fabric, int shard) {
    fabric_ = fabric;
    shard_ = shard;
  }

  /// Accepts a packet posted by another shard: acquires a local descriptor
  /// and schedules the destination NIC rx leg at the packet's due time.
  /// Runs between rounds; `pkt.due` is strictly ahead of the local clock
  /// (the lookahead guarantee), which the assert inside enforces.
  /// Migration control records (kVmTransfer / kLocationUpdate) are handed to
  /// the installed control handler instead.
  void receive_remote(ShardFabric::RemotePacket& pkt);

  /// Installs the cluster location directory.  With a directory, send()
  /// routes by the destination VM's *registered* global location rather than
  /// its current platform pointers — the only safe source of truth once VMs
  /// migrate.  Only registered guests can be reached across shards; a
  /// guest without a global id (dom0, externals), or any guest when no
  /// directory is installed, must live on this network's platform.
  void set_directory(virt::LocationDirectory* directory) {
    directory_ = directory;
  }
  virt::LocationDirectory* directory() { return directory_; }

  /// Receiver for migration control records arriving over the fabric
  /// (installed by the shard's Migrator).
  using ControlHandler = std::function<void(ShardFabric::RemotePacket&)>;
  void set_control_handler(ControlHandler handler) {
    control_handler_ = std::move(handler);
  }

  /// First global node id owned by this network's platform; translates the
  /// directory's global node ids to local Node indices.
  std::int32_t node_id_offset() const {
    return platform_->config().node_id_offset;
  }
  int shard() const { return shard_; }

  /// Guest-to-guest message.  `on_delivered` runs in the destination guest's
  /// context (event-channel mailbox), i.e. only once that VM can process
  /// interrupts.
  void send(virt::Vm& src, virt::Vm& dst, std::uint64_t bytes,
            sim::InlineCallback on_delivered);

  /// External client -> guest: the packet appears at the destination node's
  /// NIC after one wire latency (httperf-style load injection).
  void inject(virt::Vm& dst, std::uint64_t bytes,
              sim::InlineCallback on_delivered);

  /// Guest -> external client; `on_exit_fabric` fires when the packet has
  /// left the platform (response-time measurement point).
  void send_out(virt::Vm& src, std::uint64_t bytes,
                sim::InlineCallback on_exit_fabric);

  /// blkback disk request from `vm`'s node-local disk.
  void submit_disk(virt::Vm& vm, std::uint64_t bytes,
                   sim::InlineCallback on_complete);

  /// Node `n`'s dom0 backend; valid after attach().  Tests drive it
  /// directly to exercise the idle/wake path.
  Dom0Backend& backend(int n) {
    return *nodes_[static_cast<std::size_t>(n)].backend;
  }

  virt::Engine& engine() { return platform_->engine(); }
  virt::Platform& platform() { return *platform_; }
  const virt::ModelParams& params() const { return platform_->params(); }
  sim::Simulation& simulation() { return platform_->simulation(); }

  struct Counters {
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    std::uint64_t disk_ops = 0;
  };
  const Counters& counters() const { return counters_; }

  /// Descriptor slots ever created (high-water mark of concurrently
  /// in-flight packets + disk requests); tests assert it stops growing.
  std::size_t packet_slots() const { return pool_.size(); }

 private:
  friend class Dom0Backend;

  /// Handle to a pooled packet descriptor.  {slot, generation}: the
  /// generation tag makes a handle single-use — once the descriptor is
  /// released the slot's generation moves on and stale handles trip the
  /// assert in desc() instead of silently aliasing a recycled packet.
  struct PacketRef {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// One in-flight packet or disk request.  The caller's completion rides
  /// in `done` from the first dom0 hop to final delivery; hops only ever
  /// copy the 8-byte PacketRef.
  struct Packet {
    std::uint64_t bytes = 0;
    virt::Vm* dst = nullptr;  ///< delivery target; nullptr = exits fabric
    std::int32_t src_node = -1;
    std::int32_t dst_node = -1;
    sim::InlineCallback done;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
  };

  static constexpr std::uint32_t kNilSlot = UINT32_MAX;
  /// dst_node sentinel marking a packet whose destination VM lives on
  /// another shard's platform: tx_effect hands it to the fabric after the
  /// source NIC instead of scheduling a local wire arrival.
  static constexpr std::int32_t kRemoteNode = -2;

  struct NodeState {
    std::unique_ptr<Dom0Backend> backend;
    sim::SimTime nic_tx_busy = 0;
    sim::SimTime nic_rx_busy = 0;
    sim::SimTime disk_busy = 0;
  };

  PacketRef acquire(std::uint64_t bytes, virt::Vm* dst, std::int32_t src_node,
                    std::int32_t dst_node, sim::InlineCallback done);
  Packet& desc(PacketRef r);
  /// Retires the descriptor and returns its completion.  The slot goes back
  /// on the free list *before* the callback is run or deposited, so a
  /// completion that immediately sends the next message reuses the slot it
  /// just freed.
  sim::InlineCallback release(PacketRef r);
  /// release() + invoke, for hops that complete outside any guest context.
  void finish(PacketRef r);

  // Per-hop steps of the split-driver path; each is scheduled by the
  // previous one and carries only the descriptor handle.
  void tx_effect(PacketRef r);        ///< src dom0 netback -> NIC or loopback
  void rx_arrive(PacketRef r);        ///< wire arrival -> dst NIC rx leg
  void enqueue_rx(PacketRef r);       ///< dst dom0 netback -> event channel
  void deliver(PacketRef r);          ///< event-channel deposit to the guest
  void forward_effect(PacketRef r);   ///< dom0 re-route after dst VM migrated
  void tx_out_effect(PacketRef r);    ///< send_out: NIC + wire, then done
  void disk_issue(PacketRef r);       ///< blkback submit on the node disk
  void disk_done(PacketRef r);        ///< device completion -> event channel

  Dom0Backend& backend_of(const virt::Vm& vm);
  NodeState& state_of(const virt::Vm& vm);
  sim::SimTime packet_cpu_cost(std::uint64_t bytes) const;
  /// Serializes `bytes` through a busy-until resource; returns completion.
  static sim::SimTime serialize(sim::SimTime now, sim::SimTime& busy_until,
                                std::uint64_t bytes, double bandwidth_bps);

  virt::Platform* platform_;
  ShardFabric* fabric_ = nullptr;  ///< non-null only in sharded runs
  int shard_ = 0;
  virt::LocationDirectory* directory_ = nullptr;  ///< null = static placement
  ControlHandler control_handler_;  ///< migration control-record receiver
  std::vector<NodeState> nodes_;
  Counters counters_;
  std::vector<Packet> pool_;  ///< descriptor slab; grows to high-water only
  std::uint32_t free_head_ = kNilSlot;
  bool attached_ = false;
};

}  // namespace atcsim::net
