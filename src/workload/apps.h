// Non-parallel application models: the loop-descriptor interpreter with the
// CPU-bound (SPEC-like) and memory-bandwidth (stream) profiles, disk I/O
// (bonnie++-like), ICMP echo (ping), and a web server driven by an
// httperf-style open-loop client.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "metrics/recorders.h"
#include "net/network.h"
#include "simcore/rng.h"
#include "virt/sync_event.h"
#include "virt/workload_api.h"
#include "workload/descriptor.h"

namespace atcsim::workload {

using namespace sim::time_literals;

/// The CPU-bound guests (SPEC CPU 2006 sphinx3 / gcc / bzip2, and stream)
/// as single-compute loop descriptors for LoopWorkload.  Each credits
/// rate_units per compute-second: CPU-seconds, or MB of triad traffic for
/// stream.  Effective throughput vs. CR gives the paper's normalized
/// execution time for fixed-work applications.  Throws
/// std::invalid_argument for any other name.
Descriptor cpu_descriptor(const std::string& name);

/// Interpreter for loop (non-barrier) descriptors: one VCPU cycling through
/// compute / think / io phases — CPU loops (cpu_descriptor), blocked think
/// time and blkback I/O bursts, so non-parallel guests are descriptor
/// instances too.
class LoopWorkload : public virt::Workload {
 public:
  /// Throws DescriptorError when `desc` is invalid or parallel
  /// (barrier-terminated programs need BspApp).
  LoopWorkload(net::VirtualNetwork& net, virt::Vm& self_vm, Descriptor desc,
               sim::Rng rng, metrics::RateCounter* counter);

  virt::Action next(virt::Vcpu& self) override;
  double cache_sensitivity() const override {
    return desc_.cache_sensitivity;
  }
  std::string name() const override { return desc_.name; }
  /// Movable except while a blkback request is in flight: the disk chain
  /// holds node-local device state that cannot follow the VM.
  bool migratable() const override { return !io_pending_; }
  /// Rebinds the node-derived references (network, sync-event engines) to
  /// the adopting platform.  Think timers travel separately as owned
  /// engine timers (signal_in's owner tag).
  void on_vm_migrated(virt::Vm& vm, virt::Engine& engine) override;

 private:
  net::VirtualNetwork* net_;
  virt::Vm* vm_;
  Descriptor desc_;
  sim::Rng rng_;
  metrics::RateCounter* counter_;
  std::size_t pc_ = 0;             ///< next phase of desc_.phases
  sim::SimTime last_compute_ = 0;  ///< credited on the following call
  std::unique_ptr<virt::SyncEvent> think_;
  std::unique_ptr<virt::SyncEvent> io_;
  bool io_pending_ = false;  ///< a blkback request is in flight
};

/// Halted server VCPU: blocks forever, woken only to process event-channel
/// mail (ICMP echo handling happens in the deposit handlers).
class IdleServerWorkload : public virt::Workload {
 public:
  explicit IdleServerWorkload(virt::Engine& engine) : engine_(&engine) {}
  virt::Action next(virt::Vcpu& self) override;
  std::string name() const override { return "idle-server"; }
  double cache_sensitivity() const override { return 0.1; }

 private:
  virt::Engine* engine_;
  std::unique_ptr<virt::SyncEvent> wait_;
};

/// ping: periodic echo request to a peer VM; RTT = network + the VMM
/// scheduling delays on both ends.
class PingWorkload : public virt::Workload {
 public:
  static constexpr sim::SimTime kInterval = 5 * sim::kMillisecond;
  static constexpr std::uint64_t kBytes = 64;

  PingWorkload(net::VirtualNetwork& net, virt::Vm& self_vm, virt::Vm& peer,
               metrics::DurationRecorder* rtt)
      : net_(&net), vm_(&self_vm), peer_(&peer), rtt_(rtt) {}

  virt::Action next(virt::Vcpu& self) override;
  std::string name() const override { return "ping"; }
  double cache_sensitivity() const override { return 0.1; }

 private:
  net::VirtualNetwork* net_;
  virt::Vm* vm_;
  virt::Vm* peer_;
  metrics::DurationRecorder* rtt_;
  std::unique_ptr<virt::SyncEvent> reply_;
  std::unique_ptr<virt::SyncEvent> sleep_;
  sim::SimTime sent_at_ = 0;
  enum class Phase { kSend, kGotReply } phase_ = Phase::kSend;
};

/// bonnie++-like sequential disk workload through blkback.  Keeps
/// kQueueDepth requests in flight (buffered sequential I/O), so its
/// throughput is disk-bound rather than scheduling-latency-bound.
class DiskWorkload : public virt::Workload {
 public:
  static constexpr std::uint64_t kRequestBytes = 256 * 1024;
  static constexpr sim::SimTime kSubmitCost = 20 * sim::kMicrosecond;
  static constexpr int kQueueDepth = 8;

  DiskWorkload(net::VirtualNetwork& net, virt::Vm& self_vm,
               metrics::RateCounter* mb_counter)
      : net_(&net), vm_(&self_vm), counter_(mb_counter) {}

  virt::Action next(virt::Vcpu& self) override;
  std::string name() const override { return "bonnie"; }
  double cache_sensitivity() const override { return 0.3; }

 private:
  net::VirtualNetwork* net_;
  virt::Vm* vm_;
  metrics::RateCounter* counter_;
  std::unique_ptr<virt::SyncEvent> wait_;
  int outstanding_ = 0;
};

/// Apache-like request/response server; measure with HttperfClient.
class WebServerWorkload : public virt::Workload {
 public:
  static constexpr sim::SimTime kService = 1 * sim::kMillisecond;
  static constexpr double kJitter = 0.2;
  static constexpr std::uint64_t kResponseBytes = 16 * 1024;

  WebServerWorkload(net::VirtualNetwork& net, virt::Vm& self_vm,
                    metrics::DurationRecorder* response_time, sim::Rng rng)
      : net_(&net), vm_(&self_vm), rec_(response_time), rng_(rng) {}

  /// Called from the request-delivery deposit handler.
  void on_request(sim::SimTime injected_at);

  virt::Action next(virt::Vcpu& self) override;
  std::string name() const override { return "webserver"; }
  double cache_sensitivity() const override { return 2.0; }

 private:
  net::VirtualNetwork* net_;
  virt::Vm* vm_;
  metrics::DurationRecorder* rec_;
  sim::Rng rng_;
  std::deque<sim::SimTime> backlog_;
  std::unique_ptr<virt::SyncEvent> idle_;
  bool serving_ = false;
  sim::SimTime current_t0_ = 0;
};

/// Open-loop Poisson request generator (httperf) at `rate_per_second`.
class HttperfClient {
 public:
  static constexpr std::uint64_t kRequestBytes = 512;

  HttperfClient(net::VirtualNetwork& net, virt::Vm& server_vm,
                WebServerWorkload& server, double rate_per_second,
                sim::Rng rng)
      : net_(&net), server_vm_(&server_vm), server_(&server),
        rate_per_second_(rate_per_second), rng_(rng) {}

  /// Schedules the arrival process; call before the simulation runs.
  void start();

 private:
  void arrival();

  net::VirtualNetwork* net_;
  virt::Vm* server_vm_;
  WebServerWorkload* server_;
  double rate_per_second_;
  sim::Rng rng_;
};

}  // namespace atcsim::workload
