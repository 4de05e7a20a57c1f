// Virtual machine: a set of VCPUs plus per-VM scheduling state and the
// monitoring accumulators that drive ATC / CS / DSS / vSlicer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "simcore/arena.h"
#include "simcore/inline_callback.h"
#include "simcore/time.h"
#include "virt/ids.h"
#include "virt/vcpu.h"

namespace atcsim::virt {

class Node;

enum class VmType : std::uint8_t {
  kDom0,         ///< driver domain (netback/blkback)
  kParallel,     ///< hosts ranks of a tightly-coupled parallel application
  kNonParallel,  ///< everything else (CPU, I/O, latency-sensitive apps)
};

/// Lives in the arena of the platform that created it, with its VCPU
/// array right behind it.  That platform runs its destructor, wherever the
/// VM is hosted by then (DESIGN.md §12).
class Vm {
 public:
  /// Creates the VM with `vcpus` VCPUs, numbered from `first_vcpu`, in one
  /// array taken from `arena`.
  Vm(VmId id, Node& node, VmType type, VcpuId first_vcpu, int vcpus,
     sim::Arena& arena);

  // The VCPUs point back at their VM.
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  VmId id() const { return id_; }
  Node& node() { return *node_; }
  const Node& node() const { return *node_; }
  VmType type() const { return type_; }

  /// Cluster-wide identity, assigned once at scenario build in creation
  /// order and never changed — unlike the platform-local id(), which is
  /// reassigned when the VM migrates onto another platform.  Migration
  /// policies break ties on it.  -1 until assigned.
  std::int64_t global_id() const { return global_id_; }
  void set_global_id(std::int64_t g) { global_id_ = g; }

  // Migration rewiring (Platform::adopt_vm only).
  void set_id(VmId id) { id_ = id; }
  void set_node(Node& n) { node_ = &n; }

  bool is_parallel() const { return type_ == VmType::kParallel; }
  bool is_dom0() const { return type_ == VmType::kDom0; }

  /// The VCPUs, in index_in_vm order.  One array, sized by the constructor
  /// and never reallocated: a VCPU's address is stable for the VM's
  /// lifetime, migrations included.
  std::span<Vcpu> vcpus() { return vcpus_; }
  std::span<const Vcpu> vcpus() const { return vcpus_; }
  std::size_t vcpu_count() const { return vcpus_.size(); }

  // --- scheduling parameters -------------------------------------------
  /// Per-VM scheduling time slice.  The paper's hypercall extension; all
  /// slice controllers (ATC, DSS, vSlicer, admin interface) write this and
  /// the engine grants it at every dispatch.
  sim::SimTime time_slice() const { return time_slice_; }
  void set_time_slice(sim::SimTime s) { time_slice_ = s; }

  /// vSlicer classification hint (admin-designated, as in the vSlicer
  /// paper): VMs hosting latency-sensitive / network-driven applications.
  /// install_approach gives them vSlicer's micro slice under VS.
  bool latency_sensitive() const { return latency_sensitive_; }
  void set_latency_sensitive(bool v) { latency_sensitive_ = v; }

  /// Administrator-specified slice for non-parallel VMs (Sec. III-C
  /// interface).  ATC uses it instead of the VMM default when present.
  bool has_admin_slice() const { return admin_slice_ >= 0; }
  sim::SimTime admin_slice() const { return admin_slice_; }
  void set_admin_slice(sim::SimTime s) { admin_slice_ = s; }

  // --- monitoring accumulators ------------------------------------------
  /// Reset every control period by the period monitor.
  struct PeriodStats {
    sim::SimTime spin_wall = 0;    ///< summed wall latency of finished spins
    std::uint64_t spin_episodes = 0;
    sim::SimTime spin_cpu = 0;     ///< on-CPU busy-wait time
    sim::SimTime run_time = 0;     ///< on-CPU time (all)
    std::uint64_t io_events = 0;   ///< packets+disk ops (DSS signal)
    std::uint64_t wakeups = 0;     ///< block->wake transitions (vSlicer signal)
    std::uint64_t llc_misses = 0;

    void reset() { *this = PeriodStats{}; }
  };
  PeriodStats& period() { return period_; }
  const PeriodStats& period() const { return period_; }

  /// Never reset; experiment-level reporting.
  struct Totals {
    sim::SimTime spin_wall = 0;
    std::uint64_t spin_episodes = 0;
    sim::SimTime spin_cpu = 0;
    sim::SimTime run_time = 0;
    std::uint64_t ctx_switches = 0;
    std::uint64_t llc_misses = 0;
  };
  Totals& totals() { return totals_; }
  const Totals& totals() const { return totals_; }

  // --- event-channel mailbox ---------------------------------------------
  /// Pending guest-side completions (packet/disk arrivals).  Handlers run
  /// when the VM is next able to process interrupts; see Engine::deposit.
  std::vector<sim::InlineCallback>& mailbox() { return mailbox_; }

  /// Drain-side twin of mailbox(): Engine::drain_mailbox swaps the mailbox
  /// into this buffer before running handlers, so re-entrant deposits go to
  /// the (now empty) mailbox and both vectors keep their capacity — the
  /// steady state of a busy event channel never touches the allocator.
  std::vector<sim::InlineCallback>& mailbox_scratch() {
    return mailbox_scratch_;
  }

  /// True when at least one VCPU is on a PCPU.
  bool any_running() const;
  /// First blocked VCPU (event-channel IRQ target), or nullptr.
  Vcpu* first_blocked();

 private:
  // The id and the two one-byte fields share the first word.
  VmId id_;
  VmType type_;
  bool latency_sensitive_ = false;
  Node* node_;
  std::int64_t global_id_ = -1;
  std::span<Vcpu> vcpus_;  // in the arena; trivially destructible
  sim::SimTime time_slice_ = 0;  // set from ModelParams default at creation
  sim::SimTime admin_slice_ = -1;
  PeriodStats period_;
  Totals totals_;
  std::vector<sim::InlineCallback> mailbox_;
  std::vector<sim::InlineCallback> mailbox_scratch_;
};

inline int Vcpu::index_in_vm() const {
  return static_cast<int>(this - vm_->vcpus().data());
}

}  // namespace atcsim::virt
