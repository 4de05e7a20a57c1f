// Guards the steady-state zero-allocation contract of the *full* I/O and
// barrier paths (DESIGN.md §9) — one layer up from alloc_guard_test.cc's
// event-core guards:
//
//  * packet path: guest send -> src dom0 netback -> NIC -> wire -> dst NIC
//    -> dst dom0 -> event-channel mailbox -> guest delivery, pumped in a
//    ring so pools, job rings and mailboxes reach their high-water size;
//  * BSP superstep cycle: compute -> intra-VM local barriers -> cross-VM
//    arrive/release messages over the network -> generation recycling,
//    including the duration recorders fed every superstep.
//
// A global operator-new hook counts heap allocations; after a warm-up
// window both cycles must perform exactly zero.  Runs as its own binary so
// the hook cannot interfere with the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "metrics/recorders.h"
#include "net/network.h"
#include "sched/credit.h"
#include "simcore/simulation.h"
#include "virt/platform.h"
#include "workload/bsp_app.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace atcsim {
namespace {

using namespace sim::time_literals;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Always-runnable guest: deposits arrive as immediate IRQs, so the test
/// exercises the I/O path itself rather than guest scheduling.
class BusyWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(1_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
  std::string name() const override { return "busy"; }
};

// One guest VM per node; node i streams messages to node (i + 1) % nodes,
// so every packet crosses the full split-driver path including NIC + wire.
struct PktRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<virt::Vm*> guests;
  std::uint64_t delivered = 0;

  struct Stream {
    PktRig* rig;
    int src;
    int dst;
  };
  std::vector<Stream> streams;

  explicit PktRig(int nodes) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = 2;
    pc.seed = 23;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
    for (int n = 0; n < nodes; ++n) {
      virt::Vm& vm = platform->create_vm(
          virt::NodeId{n}, virt::VmType::kNonParallel,
          std::string("g").append(std::to_string(n)), 1);
      workloads.push_back(std::make_unique<BusyWorkload>());
      vm.vcpus()[0]->set_workload(workloads.back().get());
      guests.push_back(&vm);
    }
    for (int n = 0; n < nodes; ++n) {
      platform->set_scheduler(virt::NodeId{n},
                              std::make_unique<sched::CreditScheduler>());
      streams.push_back(Stream{this, n, (n + 1) % nodes});
    }
    platform->engine().start();
    for (auto& st : streams) {
      fire(&st);
      fire(&st);  // two in flight per stream keeps the NICs busy
    }
  }

  void fire(Stream* st) {
    network->send(*guests[static_cast<std::size_t>(st->src)],
                  *guests[static_cast<std::size_t>(st->dst)], 8 * 1024,
                  [this, st] {
                    ++delivered;
                    fire(st);
                  });
  }
};

TEST(NetAllocGuardTest, PacketPathSteadyStateIsAllocationFree) {
  PktRig rig(2);
  rig.simulation.run_until(50_ms);  // warm-up: pools/rings at high water
  const std::uint64_t d0 = rig.delivered;
  const std::uint64_t slots0 = rig.network->packet_slots();
  const std::uint64_t before = allocs();
  rig.simulation.run_until(250_ms);
  EXPECT_EQ(allocs() - before, 0u)
      << "packet path allocated after warm-up";
  EXPECT_GT(rig.delivered - d0, 100u);
  EXPECT_EQ(rig.network->packet_slots(), slots0)
      << "descriptor slab grew past its warm-up high-water mark";
}

TEST(NetAllocGuardTest, BspSuperstepCycleSteadyStateIsAllocationFree) {
  // Two BSP VMs on different nodes: every superstep runs compute segments,
  // two intra-VM local barriers (sync_rounds = 3), a cross-VM arrive
  // message, the coordinator's release fan-out over the network, and the
  // generation-slot recycling — plus a recorder sample.
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 2;
  pc.pcpus_per_node = 2;
  pc.seed = 51;
  virt::Platform platform(simulation, pc);
  net::VirtualNetwork network(platform);
  network.attach();

  std::vector<virt::Vm*> vms;
  for (int n = 0; n < 2; ++n) {
    vms.push_back(&platform.create_vm(virt::NodeId{n},
                                      virt::VmType::kParallel,
                                      "bsp" + std::to_string(n), 2));
  }
  metrics::DurationRecorder supersteps;
  metrics::DurationRecorder iterations;
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 600_us;
  cfg.sync_rounds = 3;
  workload::BspApp app(vms, cfg, sim::Rng(9), &supersteps, &iterations);
  app.attach();
  for (int n = 0; n < 2; ++n) {
    platform.set_scheduler(virt::NodeId{n},
                           std::make_unique<sched::CreditScheduler>());
  }
  platform.engine().start();

  // Warm-up lets the packet pool, dom0 job rings and mailboxes reach their
  // high-water marks.  The barrier events need none: they are built once
  // with the app, and their waiter lists are threaded through the VCPUs.
  simulation.run_until(500_ms);
  const std::uint64_t done0 = app.supersteps_completed();
  ASSERT_GT(done0, 9u) << "warm-up did not complete enough supersteps";
  const std::uint64_t before = allocs();
  simulation.run_until(2_s);
  EXPECT_EQ(allocs() - before, 0u)
      << "BSP superstep cycle allocated after warm-up";
  EXPECT_GT(app.supersteps_completed(), done0 + 20u);
  EXPECT_EQ(supersteps.count(), app.supersteps_completed());
}

}  // namespace
}  // namespace atcsim
