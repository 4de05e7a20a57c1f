#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "net/network.h"

namespace atcsim::net {

namespace {

/// Descending canonical order: delivery pops the *smallest* (due, src, seq)
/// off the back of a ready queue.
bool after(const ShardFabric::RemotePacket& a,
           const ShardFabric::RemotePacket& b) {
  if (a.due != b.due) return a.due > b.due;
  if (a.src != b.src) return a.src > b.src;
  return a.seq > b.seq;
}

}  // namespace

ShardFabric::ShardFabric(int shards, std::size_t mailbox_slots)
    : shards_(shards),
      nets_(static_cast<std::size_t>(shards), nullptr),
      boxes_(static_cast<std::size_t>(shards) *
             static_cast<std::size_t>(shards)),
      ready_(static_cast<std::size_t>(shards)),
      posted_(static_cast<std::size_t>(shards), 0),
      delivered_(static_cast<std::size_t>(shards), 0) {
  assert(shards_ >= 2 && "a fabric only exists between shards");
  for (auto& b : boxes_) b.staged.reserve(mailbox_slots);
  for (auto& r : ready_) r.q.reserve(mailbox_slots);
}

void ShardFabric::bind(int shard, VirtualNetwork& net) {
  const auto s = static_cast<std::size_t>(shard);
  assert(s < nets_.size() && nets_[s] == nullptr);
  nets_[s] = &net;
  net.bind_fabric(this, shard);
}

void ShardFabric::stage(int src_shard, int dst_shard, RemotePacket&& rec) {
  Box& b = box(src_shard, dst_shard);
  rec.src = src_shard;
  rec.seq = b.next_seq++;
  b.staged_min = std::min(b.staged_min, rec.due);
  b.staged.push_back(std::move(rec));
  ++posted_[static_cast<std::size_t>(src_shard)];
}

void ShardFabric::post_packet(int src_shard, int dst_shard, virt::Vm& dst,
                              sim::SimTime due, std::uint64_t bytes,
                              sim::InlineCallback done) {
  assert(dst_shard != src_shard && "local packets never enter the fabric");
  RemotePacket pkt;
  pkt.due = due;
  pkt.dst = &dst;
  pkt.bytes = bytes;
  pkt.done = std::move(done);
  stage(src_shard, dst_shard, std::move(pkt));
}

void ShardFabric::post_call(int src_shard, int dst_shard, sim::SimTime due,
                            sim::InlineCallback fn) {
  assert(dst_shard != src_shard && "a local call is Simulation::call_at");
  RemotePacket call;
  call.due = due;
  call.done = std::move(fn);
  stage(src_shard, dst_shard, std::move(call));
}

void ShardFabric::seal_round() {
  for (int dst = 0; dst < shards_; ++dst) {
    auto& q = ready_[static_cast<std::size_t>(dst)].q;
    bool dirty = false;
    for (int src = 0; src < shards_; ++src) {
      Box& b = box(src, dst);
      if (b.staged.empty()) continue;
      for (RemotePacket& pkt : b.staged) q.push_back(std::move(pkt));
      b.staged.clear();  // capacity retained: steady state never reallocates
      b.staged_min = sim::kTimeNever;
      dirty = true;
    }
    // In-place introsort (std::stable_sort would allocate).  Ties across the
    // sealed/resident boundary cannot exist — equal keys are impossible and
    // equal (due, src) pairs are FIFO-ordered by seq — so plain sort is
    // deterministic here.
    if (dirty) std::sort(q.begin(), q.end(), after);
  }
}

void ShardFabric::deliver_to(int dst_shard, sim::SimTime watermark) {
  VirtualNetwork* net = nets_[static_cast<std::size_t>(dst_shard)];
  assert(net != nullptr);
  auto& q = ready_[static_cast<std::size_t>(dst_shard)].q;
  while (!q.empty() && q.back().due <= watermark) {
    RemotePacket pkt = std::move(q.back());
    q.pop_back();
    net->receive_remote(pkt);
    ++delivered_[static_cast<std::size_t>(dst_shard)];
  }
}

sim::SimTime ShardFabric::pending_due(int dst_shard) const {
  sim::SimTime earliest = sim::kTimeNever;
  for (int src = 0; src < shards_; ++src) {
    earliest = std::min(earliest, box(src, dst_shard).staged_min);
  }
  const auto& q = ready_[static_cast<std::size_t>(dst_shard)].q;
  if (!q.empty()) earliest = std::min(earliest, q.back().due);
  return earliest;
}

sim::SimTime ShardFabric::ready_due(int dst_shard) const {
  const auto& q = ready_[static_cast<std::size_t>(dst_shard)].q;
  return q.empty() ? sim::kTimeNever : q.back().due;
}

std::uint64_t ShardFabric::posted() const {
  return std::accumulate(posted_.begin(), posted_.end(), std::uint64_t{0});
}

std::uint64_t ShardFabric::delivered() const {
  return std::accumulate(delivered_.begin(), delivered_.end(),
                         std::uint64_t{0});
}

}  // namespace atcsim::net
