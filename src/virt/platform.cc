#include "virt/platform.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "virt/engine.h"
#include "virt/scheduler.h"

namespace atcsim::virt {

namespace {
/// Salts separating the derived per-node stream families from each other
/// and from the scenario's app-level splits.
constexpr std::uint64_t kDispatchStreamSalt = 0xD15BA7C4ULL;
constexpr std::uint64_t kSchedStreamSalt = 0x5C4EDC4EULL;

/// Pure function of (seed, salt, global node id): a fresh parent per call
/// makes the stream independent of every other draw in the run.
sim::Rng derived_stream(std::uint64_t seed, std::uint64_t salt, int gid) {
  sim::Rng parent(seed);
  return parent.split(salt + static_cast<std::uint64_t>(gid));
}
}  // namespace

Platform::Platform(sim::Simulation& simulation, PlatformConfig config)
    : sim_(&simulation), config_(config) {
  assert(config_.nodes > 0 && config_.pcpus_per_node > 0);
  node_streams_.reserve(static_cast<std::size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    node_streams_.push_back(derived_stream(config_.seed, kDispatchStreamSalt,
                                           config_.node_id_offset + n));
  }
  nodes_.reserve(static_cast<std::size_t>(config_.nodes));
  pcpus_.reserve(static_cast<std::size_t>(config_.nodes) *
                 static_cast<std::size_t>(config_.pcpus_per_node));
  engine_ = std::make_unique<Engine>(simulation, *this);
  sim::Arena& arena = simulation.arena();
  for (int n = 0; n < config_.nodes; ++n) {
    Node* node = arena.create<Node>(
        NodeId{n}, *this, n, PcpuId{static_cast<std::int32_t>(pcpus_.size())},
        config_.pcpus_per_node, arena);
    nodes_.push_back(node);
    for (Pcpu& p : node->pcpus()) pcpus_.push_back(&p);
    // Every node gets a one-VCPU driver domain, placed next to it; net/disk
    // backends attach workloads.  The dom0s take VM and VCPU ids
    // 0..nodes-1 in node order.  Named by global node id so names stay
    // unique and stable across shard maps (offset is 0 on unsharded
    // platforms).
    Vm& dom0 = create_vm(node->id(), VmType::kDom0,
                         "dom0-n" + std::to_string(global_node_id(*node)), 1);
    node->set_dom0(&dom0);
  }
}

sim::Rng Platform::scheduler_rng(Node& node) {
  return derived_stream(config_.seed, kSchedStreamSalt,
                        global_node_id(node));
}

Platform::~Platform() {
  // The engine goes first, then the nodes with their schedulers, then the
  // VMs this platform created; the arena frees the storage later, with the
  // simulation.
  engine_.reset();
  for (Node* node : nodes_) std::destroy_at(node);
  for (Vm* vm : created_) std::destroy_at(vm);
}

Vm& Platform::create_vm(NodeId node_id, VmType type, const std::string& name,
                        int vcpus) {
  assert(node_id.valid() && node_id.index() < nodes_.size());
  Node& node = *nodes_[node_id.index()];
  sim::Arena& arena = sim_->arena();
  Vm* vm = arena.create<Vm>(VmId{static_cast<std::int32_t>(vms_.size())},
                            node, type, name, VcpuId{next_vcpu_id_}, vcpus,
                            arena);
  next_vcpu_id_ += vcpus;
  vm->set_time_slice(config_.params.default_time_slice);
  created_.push_back(vm);
  vms_.push_back(vm);
  node.vms().push_back(vm);
  return *vm;
}

std::vector<Vm*> Platform::guest_vms() const {
  std::vector<Vm*> out;
  for (Vm* vm : vms_) {
    if (vm != nullptr && !vm->is_dom0()) out.push_back(vm);
  }
  return out;
}

void Platform::expel_vm(Vm& vm) {
  assert(!vm.is_dom0());
  assert(vms_[vm.id().index()] == &vm);
  vms_[vm.id().index()] = nullptr;
  // Keep the (now null) slot, so sibling VMs keep their node-local
  // positions and the scheduler's dense per-VM indices.
  std::vector<Vm*>& hosted = vm.node().vms();
  const auto slot = std::find(hosted.begin(), hosted.end(), &vm);
  assert(slot != hosted.end() && "expel_vm: vm not hosted by its node");
  *slot = nullptr;
}

Vm& Platform::adopt_vm(NodeId node_id, Vm& vm) {
  assert(node_id.valid() && node_id.index() < nodes_.size());
  Node& node = *nodes_[node_id.index()];
  // Fresh local identities from the id-space tails; the old slots (on
  // whichever platform expelled it) stay tombstoned forever.
  vm.set_id(VmId{static_cast<std::int32_t>(vms_.size())});
  vm.set_node(node);
  for (Vcpu& v : vm.vcpus()) v.set_id(VcpuId{next_vcpu_id_++});
  vms_.push_back(&vm);
  node.vms().push_back(&vm);
  return vm;
}

}  // namespace atcsim::virt
