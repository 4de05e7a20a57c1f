// Physical node: PCPUs, hosted VMs (including dom0), and a scheduler.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "virt/ids.h"
#include "virt/pcpu.h"
#include "virt/scheduler.h"
#include "virt/vm.h"

namespace atcsim::virt {

class Platform;

class Node {
 public:
  /// Creates the node with `pcpus` PCPUs, numbered from `first_pcpu`.
  Node(NodeId id, Platform& platform, int index, PcpuId first_pcpu,
       int pcpus)
      : id_(id), platform_(&platform), index_(index) {
    pcpus_.reserve(static_cast<std::size_t>(pcpus));
    for (int c = 0; c < pcpus; ++c) {
      pcpus_.emplace_back(PcpuId{first_pcpu.value + c}, *this, c);
    }
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

  std::vector<std::unique_ptr<Vm>>& vms() { return vms_; }
  const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }

  /// The driver domain; created automatically with every node.
  Vm* dom0() { return dom0_; }
  void set_dom0(Vm* d) { dom0_ = d; }

  Scheduler& scheduler() { return *scheduler_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  void set_scheduler(std::unique_ptr<Scheduler> s) { scheduler_ = std::move(s); }
  bool has_scheduler() const { return scheduler_ != nullptr; }

 private:
  NodeId id_;
  Platform* platform_;
  int index_;
  std::vector<Pcpu> pcpus_;  // never grows after construction
  std::vector<std::unique_ptr<Vm>> vms_;
  Vm* dom0_ = nullptr;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace atcsim::virt
