#include "workload/apps.h"

#include <algorithm>
#include <utility>

namespace atcsim::workload {

using sim::SimTime;

// ---------------------------------------------------------- CpuBoundWorkload

virt::Action CpuBoundWorkload::next(virt::Vcpu& /*self*/) {
  if (last_chunk_ > 0 && counter_ != nullptr) {
    counter_->add(sim::to_seconds(last_chunk_) *
                  cfg_.units_per_second_of_work);
  }
  last_chunk_ = rng_.jittered(cfg_.chunk, cfg_.jitter);
  return virt::Action::compute(last_chunk_);
}

CpuBoundWorkload::Config CpuBoundWorkload::sphinx3() {
  Config c;
  c.name = "sphinx3";
  c.chunk = 1'500'000;  // 1.5 ms
  c.cache_sens = 12.0;  // large acoustic-model working set
  return c;
}

CpuBoundWorkload::Config CpuBoundWorkload::gcc() {
  Config c;
  c.name = "gcc";
  c.chunk = 2'000'000;  // 2 ms
  c.cache_sens = 8.0;
  return c;
}

CpuBoundWorkload::Config CpuBoundWorkload::bzip2() {
  Config c;
  c.name = "bzip2";
  c.chunk = 3'000'000;  // 3 ms
  c.cache_sens = 5.0;
  return c;
}

CpuBoundWorkload::Config CpuBoundWorkload::stream() {
  Config c;
  c.name = "stream";
  c.chunk = 500'000;  // 0.5 ms
  c.cache_sens = 6.0;
  // ~12 GB/s of triad traffic per busy second, reported in MB.
  c.units_per_second_of_work = 12'000.0;
  return c;
}

Descriptor CpuBoundWorkload::descriptor(const Config& cfg) {
  Descriptor d;
  d.name = cfg.name;
  d.cache_sensitivity = cfg.cache_sens;
  d.rate_units = cfg.units_per_second_of_work;
  Phase p;
  p.kind = PhaseKind::kCompute;
  p.duration = cfg.chunk;
  p.jitter = cfg.jitter;
  d.phases.push_back(p);
  if (const std::string err = d.validate(); !err.empty()) {
    throw DescriptorError(err);
  }
  return d;
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
  // Same accounting as CpuBoundWorkload: the chunk completed by reaching
  // this call is credited before the next one is drawn, so a
  // single-compute descriptor reproduces its unit stream exactly.
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
      virt::SyncEvent* reply = reply_.get();
      virt::Vm* peer = peer_;
      virt::Vm* self_vm = vm_;
      net::VirtualNetwork* net = net_;
      const std::uint64_t bytes = cfg_.bytes;
      // Echo request; the peer's kernel replies as soon as the peer VM can
      // take the interrupt (the deposit handler runs in its context).
      net->send(*self_vm, *peer, bytes, [net, peer, self_vm, bytes, reply] {
        net->send(*peer, *self_vm, bytes, [reply] { reply->signal(); });
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
      net_->engine().signal_in(*sleep_, cfg_.interval);
      return virt::Action::block_wait(*sleep_);
    }
  }
  return virt::Action::exit();
}

// -------------------------------------------------------------- DiskWorkload

virt::Action DiskWorkload::next(virt::Vcpu& /*self*/) {
  if (outstanding_ < cfg_.queue_depth) {
    ++outstanding_;
    net_->submit_disk(*vm_, cfg_.request_bytes, [this] {
      --outstanding_;
      if (counter_ != nullptr) {
        counter_->add(static_cast<double>(cfg_.request_bytes) /
                      (1024.0 * 1024.0));
      }
      if (wait_ != nullptr && !wait_->signalled()) wait_->signal();
    });
    return virt::Action::compute(cfg_.submit_cost);
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
    metrics::LatencyRecorder* rec = rec_;
    net::VirtualNetwork* net = net_;
    const SimTime t0 = current_t0_;
    net->send_out(*vm_, cfg_.response_bytes, [net, rec, t0] {
      if (rec != nullptr) rec->record(net->simulation().now() - t0);
    });
  }
  if (!backlog_.empty()) {
    current_t0_ = backlog_.front();
    backlog_.pop_front();
    serving_ = true;
    return virt::Action::compute(rng_.jittered(cfg_.service, cfg_.jitter));
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
  const double gap_s = rng_.exponential(1.0 / cfg_.rate_per_second);
  const SimTime gap = static_cast<SimTime>(gap_s * 1e9);
  const SimTime wait = std::max<SimTime>(gap, 1);
  // Not a SyncEvent wake, but the injection is itself a network act, so
  // the sharded output bound must see it.
  net_->engine().note_effect_at(net_->simulation().now() + wait);
  net_->simulation().call_in(wait, [this] {
    const SimTime t0 = net_->simulation().now();
    WebServerWorkload* server = server_;
    net_->inject(*server_vm_, cfg_.request_bytes,
                 [server, t0] { server->on_request(t0); });
    arrival();
  });
}

}  // namespace atcsim::workload
