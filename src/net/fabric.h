// Cross-shard packet fabric for sharded (conservative PDES) runs.
//
// One ShardFabric spans all shards of a scenario.  During a round's fused
// phase, a shard whose guest sends to a VM owned by another shard serializes
// the packet through its own NIC as usual and then posts a RemotePacket —
// {due time, destination VM, bytes, completion} — into the (src, dst)
// staging box.  Between phases the round coordinator *seals* the staged
// packets (seal_round) into one ready queue per destination shard, kept
// sorted by the canonical key (due, source shard, per-channel FIFO seq).
// During its next fused phase the destination drains the queue in batches,
// one per distinct due time, each only after its local clock has consumed
// every event at or before that due (ShardExec::advance_to's interleave;
// deliver_to's watermark).
//
// The watermark + canonical key are what make sharded runs deterministic
// and *round-structure independent*: horizon safety guarantees that every
// packet due at or before a shard's horizon has already been posted when
// that round's delivery runs, so the sequence of receive_remote calls a
// destination observes is globally sorted by (due, src, seq) — a pure
// function of the packet population, identical no matter how rounds are
// batched or how many worker threads run them (DESIGN.md §10).
//
// Concurrency: a staging box (s, d) is written only by shard s's worker
// during a fused phase; ready queue d is read only by shard d's worker.
// The coordinator moves packets from boxes to queues strictly between
// phases, and the ShardGroup barrier publishes the moves.  Boxes and
// queues keep their high-water capacity (cold-start size: the constructor's
// mailbox_slots) and sealing sorts in place, so steady-state exchange
// touches the allocator zero times.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simcore/inline_callback.h"
#include "simcore/time.h"
#include "virt/migration.h"

namespace atcsim {
namespace net {

class VirtualNetwork;

class ShardFabric {
 public:
  /// Record kinds carried over the fabric.  Packets are the data plane;
  /// VM transfers and location updates are the migration control plane and
  /// share the per-channel FIFO seq with packets, so the canonical
  /// (due, src, seq) delivery order totally orders control against data.
  enum class Kind : std::uint8_t {
    kPacket,          ///< a guest packet due at the destination NIC
    kVmTransfer,      ///< a migrating VM (RemotePacket::bundle)
    kLocationUpdate,  ///< "guest vm_gid lives at (a_shard, a_node) from due"
  };

  /// A packet in flight between shards: it has already paid the source-side
  /// guest/dom0/NIC costs and is due at the destination NIC at `due`
  /// (>= send time + wire latency, which is the PDES lookahead).  `src` and
  /// `seq` (assigned at post time) make the delivery order canonical.
  struct RemotePacket {
    sim::SimTime due = 0;
    virt::Vm* dst = nullptr;
    std::uint64_t bytes = 0;
    std::int32_t src = 0;     ///< source shard
    std::uint64_t seq = 0;    ///< FIFO index within the (src, dst) channel
    sim::InlineCallback done;
    Kind kind = Kind::kPacket;
    /// kPacket: destination *global* node id, resolved from the sender's
    /// location directory at post time.
    /// kLocationUpdate: the guest's new global node id.
    std::int32_t dst_node_global = -1;
    /// kVmTransfer / kLocationUpdate: the migrating guest's global id.
    std::int64_t vm_gid = -1;
    /// kLocationUpdate: the guest's new shard.
    std::int32_t new_shard = -1;
    /// kVmTransfer: the migrating VM.  The record owns it until the
    /// destination shard's control handler takes it, so a run that ends
    /// with the record in flight frees it with the fabric.
    std::unique_ptr<virt::MigrationBundle> bundle;
  };

  ShardFabric(int shards, std::size_t mailbox_slots);

  ShardFabric(const ShardFabric&) = delete;
  ShardFabric& operator=(const ShardFabric&) = delete;

  /// Registers shard `shard`'s network with the fabric and binds the
  /// network back to it.  Call once per shard, in shard order, before
  /// Engine::start().
  void bind(int shard, VirtualNetwork& net);

  /// Posts a packet from `src_shard` into the (src, dst) staging box.
  /// Caller is the source shard's worker, inside its fused phase.  The
  /// destination shard and global node were resolved by the caller from
  /// its LocationDirectory, so this never touches dst's (possibly
  /// mid-migration) platform pointers.
  void post_packet(int src_shard, int dst_shard, virt::Vm& dst,
                   std::int32_t dst_node_global, sim::SimTime due,
                   std::uint64_t bytes, sim::InlineCallback done);

  /// Migration control plane: posts a kVmTransfer / kLocationUpdate record
  /// (fields beyond due/src/seq already filled in by the caller) to
  /// `dst_shard`'s box.  Shares the channel seq with packets.
  void post_control(int src_shard, int dst_shard, RemotePacket&& rec);

  /// Moves every packet staged during the last phase into its destination's
  /// ready queue and restores the queues' canonical (due, src, seq) order.
  /// Call single-threaded between rounds (ShardGroup::Options::
  /// round_prologue); the group barrier publishes the moves.
  void seal_round();

  /// Hands every sealed packet for `dst_shard` with due <= `watermark` to
  /// that shard's network, in canonical (due, src, seq) order.  Packets due
  /// later stay queued — delivering them early would tie their event-queue
  /// insertion order (and same-timestamp tie-breaks against local events)
  /// to the round structure.  Caller is the destination shard's worker
  /// inside its fused phase, with `watermark` = the batch's due time, after
  /// running local events up to it (ShardExec::advance_to); the final drain
  /// after the exit check passes kTimeNever (every remaining packet is due
  /// beyond the deadline, so the canonical order is preserved).
  void deliver_to(int dst_shard, sim::SimTime watermark);

  /// Earliest due time over packets posted to `dst_shard` but not yet
  /// delivered — staged or sealed-but-beyond-watermark — or kTimeNever.
  /// The synchronizer folds this into the shard's next-event time so the
  /// round plan sees work that delivery has not surfaced yet.  Call only
  /// between phases.
  sim::SimTime pending_due(int dst_shard) const;

  /// Earliest due time over *sealed* packets for `dst_shard`, or
  /// kTimeNever.  Unlike pending_due this is safe from the destination
  /// shard's worker during a fused phase: the ready queue is owned by that
  /// worker, while the staging boxes it must not look at are being written
  /// by the others.
  sim::SimTime ready_due(int dst_shard) const;

  int shards() const { return shards_; }
  /// Totals across shards.  Call only while no round is in flight (the
  /// per-shard counters below are owned by the shard workers).
  std::uint64_t posted() const;
  std::uint64_t delivered() const;

 private:
  /// One (src, dst) channel's staging box: written by the source worker
  /// during a phase, drained by seal_round between phases.
  struct Box {
    std::vector<RemotePacket> staged;
    sim::SimTime staged_min = sim::kTimeNever;
    std::uint64_t next_seq = 0;  ///< FIFO counter; never reset
  };

  /// One destination's sealed packets, sorted descending by the canonical
  /// key so delivery pops ready packets off the back.
  struct ReadyQueue {
    std::vector<RemotePacket> q;
  };

  Box& box(int src, int dst) {
    return boxes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(dst)];
  }
  const Box& box(int src, int dst) const {
    return boxes_[static_cast<std::size_t>(src) *
                      static_cast<std::size_t>(shards_) +
                  static_cast<std::size_t>(dst)];
  }

  int shards_;
  std::vector<VirtualNetwork*> nets_;
  std::vector<Box> boxes_;       ///< [src * shards + dst]
  std::vector<ReadyQueue> ready_; ///< [dst]
  // Counter-per-shard, each written only by that shard's worker (posted by
  // source, delivered by destination); summed between rounds.
  std::vector<std::uint64_t> posted_;
  std::vector<std::uint64_t> delivered_;
};

}  // namespace net
}  // namespace atcsim
