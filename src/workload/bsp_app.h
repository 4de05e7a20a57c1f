// Bulk-Synchronous Parallel application model (one MPI-style rank per VCPU).
//
// A BspApp executes a cyclic *phase program* — compute segments, think
// (blocked) time, disk I/O bursts, fire-and-forget messages, intra-VM spin
// barriers and one global barrier — compiled from a parallel
// workload::Descriptor (descriptor.h).  The classic NPB shapes reach it the
// same way, through Descriptor::from_bsp.
//
// Barrier semantics per superstep (one pass through the program):
//  * intra-VM (local_barrier): ranks of a VM busy-wait (user-space MPI
//    poll; the VCPU stays runnable and burns CPU) until the VM's release
//    event fires — the spin the paper's monitor measures;
//  * cross-VM (barrier): the last local arriver sends an "arrive" message
//    to the coordinator VM through the full split-driver network path; once
//    all VMs arrived the coordinator sends "release" messages back.
//    Message sizes model the application's per-superstep exchange volume.
// Both legs wait through VMM scheduling delays, so superstep latency scales
// with the time slices of co-located VMs — the effect ATC exploits.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/recorders.h"
#include "net/network.h"
#include "simcore/arena.h"
#include "simcore/rng.h"
#include "virt/engine.h"
#include "virt/sync_event.h"
#include "virt/workload_api.h"
#include "workload/descriptor.h"

namespace atcsim::workload {

class BspRank;

/// One parallel application running on a virtual cluster of VMs.
///
/// Shard-aware: the VMs of one virtual cluster may live on different
/// shards' platforms.  Every per-VM resource (barrier SyncEvents, message
/// sends, think timers, disk requests) goes through the owning VM's
/// platform, and coordinator-side state is only ever touched from the
/// coordinator VM's shard — either directly (VM 0's own ranks) or via
/// message delivery, which establishes the required happens-before through
/// the round barriers.
class BspApp {
 public:
  /// Compiles the phase program of a parallel (barrier-terminated)
  /// descriptor.  Throws DescriptorError when the descriptor is invalid or
  /// not parallel.  Each VM uses its own platform's network; vms[0] is the
  /// coordinator.
  BspApp(std::vector<virt::Vm*> vms, const Descriptor& desc, sim::Rng rng,
         metrics::DurationRecorder* superstep_rec);
  ~BspApp();

  BspApp(const BspApp&) = delete;
  BspApp& operator=(const BspApp&) = delete;

  /// Creates one rank per VCPU of every VM and binds the workloads.
  /// Call before Engine::start().
  void attach();

  const std::string& name() const { return name_; }
  double cache_sensitivity() const { return cache_sensitivity_; }
  std::uint64_t supersteps_completed() const { return supersteps_done_; }
  const std::vector<virt::Vm*>& vms() const { return vm_ptrs_; }

 private:
  friend class BspRank;

  /// One compiled step of the per-rank phase program.
  struct Step {
    PhaseKind kind = PhaseKind::kCompute;
    sim::SimTime duration = 0;  ///< compute / think
    double jitter = 0.0;        ///< compute / think
    std::uint64_t bytes = 0;    ///< io / send / barrier
    int local_index = 0;        ///< local_barrier: slot within a generation
  };

  /// Rank bookkeeping at barrier entry; returns the release event the rank
  /// must spin on for generation `gen`.  Here and below, `gen` is a rank's
  /// 16-bit count (BspRank::gen_), read only modulo kGenWindow, which
  /// divides 2^16.
  virt::SyncEvent& rank_arrived(int vm_index, std::uint64_t gen);
  /// Intra-VM shared-memory barrier `local_index` of generation `gen`; the
  /// last local arriver releases it directly (no network).
  virt::SyncEvent& local_round_arrived(int vm_index, std::uint64_t gen,
                                       int local_index);
  void coordinator_arrive(std::uint64_t gen);
  void release_generation(std::uint64_t gen);
  virt::SyncEvent& release_event(int vm_index, std::uint64_t gen);

  /// Barrier events are a fixed ring of reusable slots indexed gen %
  /// kGenWindow, not a per-generation map: at release_generation(g) every
  /// rank has passed barrier g-1, so the only generations whose events can
  /// still be referenced are {g-1, g, g+1} — three — and a window of four
  /// lets slot (g-2) % 4 be reset in place for generation g+2.  Steady-state
  /// supersteps therefore never touch the allocator.
  static constexpr std::uint64_t kGenWindow = 4;
  static_assert((std::uint64_t{1} << 16) % kGenWindow == 0,
                "a rank's 16-bit generation must wrap on a window boundary");

  /// Index into events_/arrivals_.  Each (VM, generation slot) owns one
  /// contiguous row of slot_size_ entries: entry 0 is the global barrier's
  /// release, entry 1 + i the i-th local_barrier step.  Arrival counters
  /// self-zero when their barrier completes.
  std::size_t barrier_index(int vm_index, std::uint64_t gen,
                            int entry) const {
    return (static_cast<std::size_t>(vm_index) * kGenWindow +
            (gen & (kGenWindow - 1))) *
               slot_size_ +
           static_cast<std::size_t>(entry);
  }

  /// The flat per-app arrays below are sized once; at 16384 nodes each
  /// spans megabytes, so their whole 2 MiB pages are advised for huge pages
  /// before the elements are built (DESIGN.md §9 "Where records live").
  template <class T>
  using HugePageVector = std::vector<T, sim::HugePageAllocator<T>>;

  std::string name_;
  double cache_sensitivity_;
  std::uint64_t barrier_bytes_;   ///< per-VM arrive/release message volume
  std::vector<Step> program_;
  /// Barriers per generation: the release plus one per local_barrier step.
  std::size_t slot_size_ = 0;
  sim::Rng rng_;
  std::vector<virt::Vm*> vm_ptrs_;
  /// Barrier events and their arrival counters, built once in init_slots
  /// and recycled in place (see barrier_index for the layout).
  HugePageVector<virt::SyncEvent> events_;
  HugePageVector<int> arrivals_;
  HugePageVector<BspRank> ranks_;  ///< one per VCPU, built by attach()
  std::array<int, kGenWindow> coord_arrivals_{};
  std::uint64_t supersteps_done_ = 0;
  sim::SimTime superstep_start_ = 0;
  metrics::DurationRecorder* superstep_rec_;
};

/// The per-VCPU rank program: an interpreter over BspApp::program(),
/// wrapping around after the global barrier.
///
/// One per VCPU (524,288 at 16384 nodes), so it is kept to one cache line:
/// the vtable pointer, app and VM index, two narrow counters, the RNG and
/// one wait event.
class BspRank : public virt::Workload {
 public:
  BspRank(BspApp& app, int vm_index, sim::Rng rng)
      : app_(&app), vm_index_(vm_index), rng_(rng) {}

  virt::Action next(virt::Vcpu& self) override;
  double cache_sensitivity() const override {
    return app_->cache_sensitivity();
  }

 private:
  /// Lazily creates (then resets and reuses) the rank-private wait event
  /// bound to the owning VM.  Think timers and disk completions share it:
  /// a rank blocks on one of them at a time, and both stay allocation-free
  /// in steady state.
  virt::SyncEvent& armed_wait();

  BspApp* app_;
  int vm_index_;
  /// Global barriers passed, modulo 2^16: only gen_ % kGenWindow is read.
  std::uint16_t gen_ = 0;
  std::uint8_t pc_ = 0;  ///< next step of app_->program()
  sim::Rng rng_;
  std::unique_ptr<virt::SyncEvent> wait_;
};

static_assert(kMaxPhases <= UINT8_MAX + 1, "BspRank::pc_ cannot index");
static_assert(sizeof(BspRank) <= 64, "BspRank outgrew one cache line");

}  // namespace atcsim::workload
