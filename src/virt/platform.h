// Platform: the whole simulated cluster (nodes, VMs, VCPUs) plus the engine.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "simcore/rng.h"
#include "simcore/simulation.h"
#include "virt/ids.h"
#include "virt/node.h"
#include "virt/params.h"

namespace atcsim {
namespace net {
class VirtualNetwork;
}  // namespace net

namespace virt {

class Engine;

struct PlatformConfig {
  int nodes = 1;
  int pcpus_per_node = 8;
  ModelParams params;
  std::uint64_t seed = 1;
  /// Global id of this platform's first node.  A sharded scenario carves
  /// the cluster into contiguous node blocks, one Platform per shard; the
  /// offset keeps node-derived identities (per-node RNG streams) functions
  /// of the *global* node id, so results do not depend on where the shard
  /// boundaries fall.  0 for unsharded platforms.
  int node_id_offset = 0;
};

/// Builds its nodes, one PCPU array for all of them, every VM it creates
/// and each VM's VCPU array in the simulation's arena (DESIGN.md §9 "Where
/// records live"), and runs their destructors when it goes.
class Platform {
 public:
  Platform(sim::Simulation& simulation, PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  sim::Simulation& simulation() { return *sim_; }
  const ModelParams& params() const { return config_.params; }
  const PlatformConfig& config() const { return config_; }

  /// Global node id of a node owned by this platform (node_id_offset plus
  /// the node's local index); shard-map independent.
  int global_node_id(const Node& node) const {
    return config_.node_id_offset + node.index();
  }

  /// Stream for dispatch-time slice jitter on `node`: a per-node stream
  /// keyed by the global node id, so scheduling randomness does not depend
  /// on how the cluster's nodes are partitioned into shards.
  sim::Rng& dispatch_rng(Node& node) {
    return node_streams_[static_cast<std::size_t>(node.index())];
  }

  /// Seed stream handed to `node`'s scheduler at attach: a pure function of
  /// (seed, global node id).
  sim::Rng scheduler_rng(Node& node);

  /// Owning network, set by VirtualNetwork::attach(); read through
  /// net::network_of(vm), the one way to find the network serving a VM.
  void set_network(net::VirtualNetwork* net) { network_ = net; }
  net::VirtualNetwork* network() const { return network_; }

  /// Creates a guest VM on `node` with `vcpus` VCPUs.  Workloads must be
  /// attached to each VCPU before Engine::start().
  Vm& create_vm(NodeId node, VmType type, int vcpus);

  /// Builds the per-node scheduler, an S made from `args`, in the
  /// simulation's arena next to the node's records, and installs it in
  /// place of any previous one (same type on every node in every
  /// experiment here, but the API is per node as in Xen).
  template <class S, class... Args>
  S& make_scheduler(NodeId node_id, Args&&... args) {
    assert(node_id.valid() && node_id.index() < nodes_.size());
    S* sched = sim_->arena().create<S>(std::forward<Args>(args)...);
    nodes_[node_id.index()]->set_scheduler(sched);
    return *sched;
  }

  Engine& engine() { return *engine_; }

  std::span<Node* const> nodes() { return nodes_; }
  Node& node(NodeId id) { return *nodes_[id.index()]; }
  Vm& vm(VmId id) {
    assert(vms_[id.index()] != nullptr);  // expelled ids are tombstoned
    return *vms_[id.index()];
  }
  Pcpu& pcpu(PcpuId id) { return pcpus_[id.index()]; }
  /// Every PCPU, by id: one array in the arena, node after node.  Entry k
  /// also owns the engine's timers 4k..4k+3.
  std::span<Pcpu> pcpus() { return pcpus_; }
  std::size_t vm_count() const { return vms_.size(); }

  /// Null-safe VM lookup: nullptr for out-of-range ids and for slots left
  /// behind by a VM that migrated off this platform (tombstones).  Every
  /// id-sweeping consumer (monitors, stat loops) must use this instead of
  /// vm().
  Vm* vm_ptr(VmId id) {
    const std::size_t i = static_cast<std::size_t>(id.index());
    return (id.valid() && i < vms_.size()) ? vms_[i] : nullptr;
  }

  /// All guest (non-dom0) VMs currently resident, platform-wide, in id
  /// order (skips migration tombstones).
  std::vector<Vm*> guest_vms() const;

  /// Whether `vm` is resident on this platform: a linear find over the VM
  /// table.  It reads no field of `vm`, which another shard may be
  /// adopting.
  bool hosts(const Vm& vm) const {
    return std::find(vms_.begin(), vms_.end(), &vm) != vms_.end();
  }

  // --- live migration ----------------------------------------------------

  /// Detaches `vm` from this platform: its VmId slot becomes a tombstone
  /// and the node keeps a null placeholder so sibling VMs keep their
  /// node-local slots (the DSS and ATC controllers index by slot).
  /// Ownership does not move: the platform that created the VM keeps it
  /// and destroys it, also while it is in flight.  The VCPUs must already
  /// be off-CPU and out of every run queue (Engine::pause_and_expel does
  /// both).
  void expel_vm(Vm& vm);

  /// Hosts a VM expelled from another (or this) platform on `node`:
  /// assigns fresh local VmId/VcpuIds from the id-space tails and rewires
  /// the VM's node back-pointer.  The engine resumes the VCPUs separately.
  Vm& adopt_vm(NodeId node, Vm& vm);

 private:
  sim::Simulation* sim_;
  PlatformConfig config_;
  /// Per-node dispatch-jitter streams, by local node index.
  std::vector<sim::Rng> node_streams_;
  /// By local index; the records are in the arena.
  std::vector<Node*> nodes_;
  /// By platform-local id: the VMs resident here, in creation and adoption
  /// order, and nullptr for one that migrated off (a tombstone).
  std::vector<Vm*> vms_;
  /// Every VM this platform created, wherever it is hosted now: their
  /// records are in this platform's arena and it runs their destructors.
  std::vector<Vm*> created_;
  std::span<Pcpu> pcpus_;  ///< by id, in the arena
  /// VcpuIds are dense in creation and adoption order; nothing looks a
  /// VCPU up by id, so only the next one is kept.
  std::int32_t next_vcpu_id_ = 0;
  std::unique_ptr<Engine> engine_;
  net::VirtualNetwork* network_ = nullptr;
};

}  // namespace virt
}  // namespace atcsim
