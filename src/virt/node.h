// Physical node: PCPUs, hosted VMs (including dom0), and a scheduler.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "virt/ids.h"
#include "virt/pcpu.h"
#include "virt/scheduler.h"
#include "virt/vm.h"

namespace atcsim::virt {

class Platform;

/// Lives in its simulation's arena (Platform builds it there).  Its PCPUs
/// are its slice of the platform's one PCPU array.
class Node {
 public:
  /// Creates the node and builds its PCPUs, numbered from `first_pcpu`, in
  /// `storage`, which is not yet constructed.
  Node(NodeId id, Platform& platform, int index, PcpuId first_pcpu,
       std::span<Pcpu> storage)
      : id_(id), platform_(&platform), index_(index), pcpus_(storage) {
    for (std::size_t c = 0; c < pcpus_.size(); ++c) {
      const int i = static_cast<int>(c);
      ::new (&pcpus_[c]) Pcpu(PcpuId{first_pcpu.value + i}, *this, i);
    }
  }

  /// Destroys the scheduler, which Platform::make_scheduler built in the
  /// arena; the arena frees the storage.
  ~Node() {
    if (scheduler_ != nullptr) std::destroy_at(scheduler_);
  }

  // The PCPUs point back at their node.
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Platform& platform() { return *platform_; }
  int index() const { return index_; }

  /// The PCPUs, in index_in_node order; one array, never reallocated.
  std::span<Pcpu> pcpus() { return pcpus_; }
  std::span<const Pcpu> pcpus() const { return pcpus_; }

  /// The VMs hosted here, dom0 first, then in creation and arrival order.
  /// A VM that migrated away leaves nullptr, so the others keep their
  /// node-local index.  Not owned: the platform that created a VM owns it.
  std::vector<Vm*>& vms() { return vms_; }
  const std::vector<Vm*>& vms() const { return vms_; }

  /// The driver domain; created automatically with every node.
  Vm* dom0() { return dom0_; }
  void set_dom0(Vm* d) { dom0_ = d; }

  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  /// Installs `s`, built in the arena, destroying any previous scheduler.
  void set_scheduler(Scheduler* s) {
    if (scheduler_ != nullptr) std::destroy_at(scheduler_);
    scheduler_ = s;
  }
  bool has_scheduler() const { return scheduler_ != nullptr; }

 private:
  NodeId id_;
  Platform* platform_;
  int index_;
  std::span<Pcpu> pcpus_;  // the platform's; trivially destructible
  std::vector<Vm*> vms_;
  Vm* dom0_ = nullptr;
  Scheduler* scheduler_ = nullptr;  ///< in the arena
};

}  // namespace atcsim::virt
