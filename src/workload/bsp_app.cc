#include "workload/bsp_app.h"

#include <algorithm>
#include <cassert>

namespace atcsim::workload {

using sim::SimTime;

BspApp::BspApp(std::vector<virt::Vm*> vms, const Descriptor& desc,
               sim::Rng rng, metrics::DurationRecorder* superstep_rec)
    : name_(desc.name),
      cache_sensitivity_(desc.cache_sensitivity),
      barrier_bytes_(desc.barrier_bytes()),
      rng_(rng),
      vm_ptrs_(std::move(vms)),
      superstep_rec_(superstep_rec) {
  if (const std::string err = desc.validate(); !err.empty()) {
    throw DescriptorError(err);
  }
  if (!desc.parallel()) {
    throw DescriptorError("BspApp needs a parallel (barrier-terminated) "
                          "descriptor; '" +
                          desc.name + "' has no barrier phase");
  }
  assert(!vm_ptrs_.empty());
  assert(desc.phases.size() <= kMaxPhases);  // validate() checked it
  int local_index = 0;
  program_.reserve(desc.phases.size());
  for (const Phase& p : desc.phases) {
    Step st;
    st.kind = p.kind;
    st.duration = p.duration;
    st.jitter = p.jitter;
    st.bytes = p.bytes;
    if (p.kind == PhaseKind::kLocalBarrier) st.local_index = local_index++;
    program_.push_back(st);
  }
  slot_size_ = 1 + static_cast<std::size_t>(local_index);

  // Construct every barrier event up front; steady-state supersteps only
  // reset them in place (see kGenWindow in the header).  Each event is
  // bound to the VM whose ranks wait on it: in a sharded run a spin-wait
  // and its release must both happen on the VM's own shard.
  const std::size_t per_vm = kGenWindow * slot_size_;
  events_ = HugePageVector<virt::SyncEvent>(vm_ptrs_.size() * per_vm);
  arrivals_.assign(events_.size(), 0);
  for (std::size_t i = 0; i < vm_ptrs_.size(); ++i) {
    assert(vm_ptrs_[i]->vcpu_count() == vm_ptrs_[0]->vcpu_count() &&
           "all VMs of a virtual cluster have the same VCPU count");
    for (std::size_t k = i * per_vm; k < (i + 1) * per_vm; ++k) {
      events_[k].bind(*vm_ptrs_[i]);
    }
  }
}

BspApp::~BspApp() = default;

void BspApp::attach() {
  assert(ranks_.empty() && "attach() runs once");
  // One block for every rank: the VCPUs point into ranks_, so it is sized
  // up front and never reallocates.
  std::size_t total = 0;
  for (const virt::Vm* vm : vm_ptrs_) total += vm->vcpu_count();
  ranks_.reserve(total);
  int rank = 0;
  for (std::size_t i = 0; i < vm_ptrs_.size(); ++i) {
    for (virt::Vcpu& vcpu : vm_ptrs_[i]->vcpus()) {
      vcpu.set_workload(&ranks_.emplace_back(
          *this, static_cast<int>(i),
          rng_.split(static_cast<std::uint64_t>(rank))));
      ++rank;
    }
  }
}

virt::SyncEvent& BspApp::release_event(int vm_index, std::uint64_t gen) {
  return events_[barrier_index(vm_index, gen, 0)];
}

virt::SyncEvent& BspApp::local_round_arrived(int vm_index,
                                             std::uint64_t gen,
                                             int local_index) {
  const std::size_t k = barrier_index(vm_index, gen, 1 + local_index);
  virt::SyncEvent& ev = events_[k];
  const virt::Vm& vm = *vm_ptrs_[static_cast<std::size_t>(vm_index)];
  if (++arrivals_[k] == static_cast<int>(vm.vcpu_count())) {
    arrivals_[k] = 0;
    // Shared-memory barrier: the last local arriver releases it in place.
    ev.signal();
  }
  return ev;
}

virt::SyncEvent& BspApp::rank_arrived(int vm_index, std::uint64_t gen) {
  const std::size_t k = barrier_index(vm_index, gen, 0);
  virt::Vm& vm = *vm_ptrs_[static_cast<std::size_t>(vm_index)];
  if (++arrivals_[k] == static_cast<int>(vm.vcpu_count())) {
    arrivals_[k] = 0;
    // The last local arriver notifies the coordinator (VM 0) on behalf of
    // its VM, carrying the application's per-superstep exchange volume.
    if (vm_index == 0) {
      coordinator_arrive(gen);
    } else {
      net::network_of(vm).send(vm, *vm_ptrs_[0], barrier_bytes_,
                               [this, gen] { coordinator_arrive(gen); });
    }
  }
  return events_[k];
}

void BspApp::coordinator_arrive(std::uint64_t gen) {
  const int arrived = ++coord_arrivals_[gen & (kGenWindow - 1)];
  if (arrived == static_cast<int>(vm_ptrs_.size())) {
    coord_arrivals_[gen & (kGenWindow - 1)] = 0;
    release_generation(gen);
  }
}

void BspApp::release_generation(std::uint64_t gen) {
  // Superstep timestamps come from the coordinator shard's clock; both ends
  // of every recorded interval are taken here, so they stay consistent.
  const SimTime now = vm_ptrs_[0]->node().platform().simulation().now();
  if (superstep_rec_ != nullptr) {
    superstep_rec_->record(now - superstep_start_);
  }
  superstep_start_ = now;
  ++supersteps_done_;  // releases run in generation order: g + 1 of them

  release_event(0, gen).signal();
  virt::Vm& coord = *vm_ptrs_[0];
  for (std::size_t i = 1; i < vm_ptrs_.size(); ++i) {
    net::network_of(coord).send(
        coord, *vm_ptrs_[i], barrier_bytes_,
        [this, i, gen] { release_event(static_cast<int>(i), gen).signal(); });
  }

  // Recycle: by the time generation g is released, every rank has passed
  // the g-1 barrier, so no VCPU can still reference events of g-2.  Reset
  // that slot's row in place for generation g+2.  `gen` wraps at 2^16, so
  // "g >= 2" is read off the release count; gen - 2 wraps at 2^64, and
  // both are multiples of kGenWindow, so the slot index stays right.
  if (supersteps_done_ >= 3) {
    for (std::size_t i = 0; i < vm_ptrs_.size(); ++i) {
      const std::size_t row = barrier_index(static_cast<int>(i), gen - 2, 0);
      assert(arrivals_[row] == 0 && "recycling a generation mid-barrier");
      for (std::size_t k = row; k < row + slot_size_; ++k) events_[k].reset();
    }
  }
}

virt::SyncEvent& BspRank::armed_wait() {
  if (wait_ == nullptr) {
    wait_ = std::make_unique<virt::SyncEvent>(
        *app_->vm_ptrs_[static_cast<std::size_t>(vm_index_)]);
  } else {
    wait_->reset();
  }
  return *wait_;
}

virt::Action BspRank::next(virt::Vcpu& /*self*/) {
  const std::vector<BspApp::Step>& program = app_->program_;
  for (;;) {
    const BspApp::Step& st = program[pc_];
    pc_ = static_cast<std::uint8_t>((pc_ + 1u) % program.size());
    switch (st.kind) {
      case PhaseKind::kCompute:
        return virt::Action::compute(
            rng_.jittered(st.duration, st.jitter));
      case PhaseKind::kThink: {
        // Blocked sleep: halt until a timer on the VM's own shard fires.
        virt::SyncEvent& ev = armed_wait();
        virt::Vm& vm = *app_->vm_ptrs_[static_cast<std::size_t>(vm_index_)];
        vm.node().platform().engine().signal_in(
            ev, std::max<SimTime>(rng_.jittered(st.duration, st.jitter), 1));
        return virt::Action::block_wait(ev);
      }
      case PhaseKind::kIo: {
        virt::SyncEvent& ev = armed_wait();
        virt::SyncEvent* evp = &ev;
        virt::Vm& vm = *app_->vm_ptrs_[static_cast<std::size_t>(vm_index_)];
        net::network_of(vm).submit_disk(vm, st.bytes,
                                        [evp] { evp->signal(); });
        return virt::Action::block_wait(ev);
      }
      case PhaseKind::kSend: {
        // Fire-and-forget ring message to the cluster's next VM; models
        // neighbour exchange traffic that overlaps with compute.
        const auto& vms = app_->vm_ptrs_;
        if (vms.size() > 1) {
          virt::Vm& src = *vms[static_cast<std::size_t>(vm_index_)];
          virt::Vm& dst =
              *vms[(static_cast<std::size_t>(vm_index_) + 1) % vms.size()];
          net::network_of(src).send(src, dst, st.bytes, [] {});
        }
        continue;  // non-blocking: execute the next phase at this instant
      }
      case PhaseKind::kLocalBarrier: {
        virt::SyncEvent& ev =
            app_->local_round_arrived(vm_index_, gen_, st.local_index);
        return virt::Action::spin_wait(ev);
      }
      case PhaseKind::kBarrier: {
        virt::SyncEvent& release = app_->rank_arrived(vm_index_, gen_);
        ++gen_;
        return virt::Action::spin_wait(release);
      }
    }
  }
}

}  // namespace atcsim::workload
