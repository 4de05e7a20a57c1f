#include "workload/apps.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace atcsim::workload {

using sim::SimTime;

// ------------------------------------------------------------ cpu_descriptor

namespace {

struct CpuProfile {
  const char* name;
  SimTime chunk;      ///< mean compute per loop iteration
  double cache_sens;
  double rate_units;  ///< units credited per compute-second
};

constexpr CpuProfile kCpuProfiles[] = {
    {"sphinx3", 1'500'000 /*1.5ms*/, 12.0, 1.0},  // large acoustic model
    {"gcc", 2'000'000 /*2ms*/, 8.0, 1.0},
    {"bzip2", 3'000'000 /*3ms*/, 5.0, 1.0},
    // ~12 GB/s of triad traffic per busy second, reported in MB.
    {"stream", 500'000 /*0.5ms*/, 6.0, 12'000.0},
};

}  // namespace

Descriptor cpu_descriptor(const std::string& name) {
  for (const CpuProfile& p : kCpuProfiles) {
    if (name != p.name) continue;
    Descriptor d;
    d.name = p.name;
    d.cache_sensitivity = p.cache_sens;
    d.rate_units = p.rate_units;
    Phase compute;
    compute.kind = PhaseKind::kCompute;
    compute.duration = p.chunk;
    compute.jitter = 0.05;
    d.phases.push_back(compute);
    return d;
  }
  throw std::invalid_argument("unknown CPU profile: " + name);
}

// -------------------------------------------------------------- LoopWorkload

LoopWorkload::LoopWorkload(net::VirtualNetwork& net, virt::Vm& self_vm,
                           Descriptor desc, sim::Rng rng,
                           metrics::RateCounter* counter)
    : net_(&net), vm_(&self_vm), desc_(std::move(desc)), rng_(rng),
      counter_(counter) {
  if (const std::string err = desc_.validate(); !err.empty()) {
    throw DescriptorError(err);
  }
  if (desc_.parallel()) {
    throw DescriptorError("LoopWorkload needs a loop (non-barrier) "
                          "descriptor; '" +
                          desc_.name + "' ends in a barrier phase");
  }
}

virt::Action LoopWorkload::next(virt::Vcpu& /*self*/) {
  // The compute phase completed by reaching this call is credited before
  // the next phase is drawn.
  if (last_compute_ > 0 && counter_ != nullptr) {
    counter_->add(sim::to_seconds(last_compute_) * desc_.rate_units);
    last_compute_ = 0;
  }
  for (;;) {
    const Phase& p = desc_.phases[pc_];
    pc_ = (pc_ + 1) % desc_.phases.size();
    switch (p.kind) {
      case PhaseKind::kCompute:
        last_compute_ = rng_.jittered(p.duration, p.jitter);
        return virt::Action::compute(last_compute_);
      case PhaseKind::kThink: {
        if (think_ == nullptr) {
          think_ = std::make_unique<virt::SyncEvent>(net_->engine());
        } else {
          think_->reset();
        }
        // Owner-tagged: if the VM migrates mid-think the engine cancels
        // this timer and re-arms the remaining wait on the destination.
        net_->engine().signal_in(
            *think_,
            std::max<sim::SimTime>(rng_.jittered(p.duration, p.jitter), 1),
            vm_);
        return virt::Action::block_wait(*think_);
      }
      case PhaseKind::kIo: {
        if (io_ == nullptr) {
          io_ = std::make_unique<virt::SyncEvent>(net_->engine());
        } else {
          io_->reset();
        }
        // `this` is heap-stable and travels with the VM, but the chain is
        // node-local anyway: io_pending_ pins the VM (migratable() false)
        // until the completion lands.
        io_pending_ = true;
        net_->submit_disk(*vm_, p.bytes, [this] {
          io_pending_ = false;
          io_->signal();
        });
        return virt::Action::block_wait(*io_);
      }
      case PhaseKind::kSend:
      case PhaseKind::kLocalBarrier:
      case PhaseKind::kBarrier:
        break;  // unreachable: validation rejects these in loop mode
    }
  }
}

void LoopWorkload::on_vm_migrated(virt::Vm& vm, virt::Engine& engine) {
  net_ = vm.node().platform().network();
  if (think_ != nullptr) think_->rebind(engine);
  if (io_ != nullptr) io_->rebind(engine);
}

// -------------------------------------------------------- IdleServerWorkload

virt::Action IdleServerWorkload::next(virt::Vcpu& /*self*/) {
  // Created once, then reset-and-reused: a woken waiter implies the event
  // has no registered waiters, so the halted-server steady state performs
  // no allocations (including the waiter-list growth a fresh event pays).
  if (wait_ == nullptr) {
    wait_ = std::make_unique<virt::SyncEvent>(*engine_);
  } else if (wait_->signalled()) {
    wait_->reset();
  }
  return virt::Action::block_wait(*wait_);
}

// -------------------------------------------------------------- PingWorkload

virt::Action PingWorkload::next(virt::Vcpu& /*self*/) {
  switch (phase_) {
    case Phase::kSend: {
      if (reply_ == nullptr) {
        reply_ = std::make_unique<virt::SyncEvent>(net_->engine());
      } else {
        reply_->reset();
      }
      sent_at_ = net_->simulation().now();
      // Echo request; the peer's kernel replies as soon as the peer VM can
      // take the interrupt (the deposit handler runs in its context).  The
      // handler reads only members fixed before the first send (reply_ is
      // created once, then reset in place), so `this` is its whole context.
      net_->send(*vm_, *peer_, kBytes, [this] {
        net_->send(*peer_, *vm_, kBytes,
                   [reply = reply_.get()] { reply->signal(); });
      });
      phase_ = Phase::kGotReply;
      return virt::Action::block_wait(*reply_);
    }
    case Phase::kGotReply: {
      if (rtt_ != nullptr) {
        rtt_->record(net_->simulation().now() - sent_at_);
      }
      phase_ = Phase::kSend;
      if (sleep_ == nullptr) {
        sleep_ = std::make_unique<virt::SyncEvent>(net_->engine());
      } else {
        sleep_->reset();
      }
      net_->engine().signal_in(*sleep_, kInterval);
      return virt::Action::block_wait(*sleep_);
    }
  }
  return virt::Action::exit();
}

// -------------------------------------------------------------- DiskWorkload

virt::Action DiskWorkload::next(virt::Vcpu& /*self*/) {
  if (outstanding_ < kQueueDepth) {
    ++outstanding_;
    net_->submit_disk(*vm_, kRequestBytes, [this] {
      --outstanding_;
      if (counter_ != nullptr) {
        counter_->add(static_cast<double>(kRequestBytes) /
                      (1024.0 * 1024.0));
      }
      if (wait_ != nullptr && !wait_->signalled()) wait_->signal();
    });
    return virt::Action::compute(kSubmitCost);
  }
  // Pipe full: sleep until a completion frees a slot.
  if (wait_ == nullptr) {
    wait_ = std::make_unique<virt::SyncEvent>(net_->engine());
  } else {
    wait_->reset();
  }
  return virt::Action::block_wait(*wait_);
}

// --------------------------------------------------------- WebServerWorkload

void WebServerWorkload::on_request(sim::SimTime injected_at) {
  backlog_.push_back(injected_at);
  if (idle_ != nullptr && !idle_->signalled()) idle_->signal();
}

virt::Action WebServerWorkload::next(virt::Vcpu& /*self*/) {
  if (serving_) {
    // Service finished: emit the response; stamp the response time when it
    // exits the fabric (the client-side measurement point).
    serving_ = false;
    metrics::DurationRecorder* rec = rec_;
    net::VirtualNetwork* net = net_;
    const SimTime t0 = current_t0_;
    net->send_out(*vm_, kResponseBytes, [net, rec, t0] {
      if (rec != nullptr) rec->record(net->simulation().now() - t0);
    });
  }
  if (!backlog_.empty()) {
    current_t0_ = backlog_.front();
    backlog_.pop_front();
    serving_ = true;
    return virt::Action::compute(rng_.jittered(kService, kJitter));
  }
  if (idle_ == nullptr) {
    idle_ = std::make_unique<virt::SyncEvent>(net_->engine());
  } else {
    idle_->reset();
  }
  return virt::Action::block_wait(*idle_);
}

// -------------------------------------------------------------- HttperfClient

void HttperfClient::start() { arrival(); }

void HttperfClient::arrival() {
  const double gap_s = rng_.exponential(1.0 / rate_per_second_);
  const SimTime gap = static_cast<SimTime>(gap_s * 1e9);
  const SimTime wait = std::max<SimTime>(gap, 1);
  net_->simulation().call_in(wait, [this] {
    const SimTime t0 = net_->simulation().now();
    WebServerWorkload* server = server_;
    net_->inject(*server_vm_, kRequestBytes,
                 [server, t0] { server->on_request(t0); });
    arrival();
  });
}

}  // namespace atcsim::workload
