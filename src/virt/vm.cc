#include "virt/vm.h"

#include <cassert>
#include <new>

namespace atcsim::virt {

Vm::Vm(VmId id, Node& node, VmType type, VcpuId first_vcpu, int vcpus,
       sim::Arena& arena)
    : id_(id),
      type_(type),
      node_(&node),
      vcpus_(arena.allocate_array<Vcpu>(static_cast<std::size_t>(vcpus)),
             static_cast<std::size_t>(vcpus)) {
  for (int i = 0; i < vcpus; ++i) {
    ::new (&vcpus_[static_cast<std::size_t>(i)])
        Vcpu(VcpuId{first_vcpu.value + i}, *this);
  }
}

bool Vm::any_running() const {
  for (const Vcpu& v : vcpus_) {
    if (v.running()) return true;
  }
  return false;
}

Vcpu* Vm::first_blocked() {
  for (Vcpu& v : vcpus_) {
    if (v.state() == VcpuState::kBlocked) return &v;
  }
  return nullptr;
}

}  // namespace atcsim::virt
