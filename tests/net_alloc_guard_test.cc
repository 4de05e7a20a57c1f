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
// The operator-new hook in alloc_guard_test.cc counts heap allocations;
// after a warm-up window both cycles must perform exactly zero.  The
// footprint guards of the recorders and of the type-A cell live here too:
// a recorder or scenario built in the hook's source would inline its
// vectors' new and delete next to the hook and trip
// -Wmismatched-new-delete.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "metrics/recorders.h"
#include "net/network.h"
#include "sched/credit.h"
#include "simcore/simulation.h"
#include "virt/platform.h"
#include "workload/bsp_app.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

/// Always-runnable guest: deposits arrive as immediate IRQs, so the test
/// exercises the I/O path itself rather than guest scheduling.
class BusyWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(1_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
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
          virt::NodeId{n}, virt::VmType::kNonParallel, 1);
      workloads.push_back(std::make_unique<BusyWorkload>());
      vm.vcpus()[0].set_workload(workloads.back().get());
      guests.push_back(&vm);
    }
    for (int n = 0; n < nodes; ++n) {
      platform->make_scheduler<sched::CreditScheduler>(virt::NodeId{n});
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
                                      virt::VmType::kParallel, 2));
  }
  metrics::DurationRecorder supersteps;
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 600_us;
  cfg.sync_rounds = 3;
  workload::BspApp app(vms, workload::Descriptor::from_bsp(cfg), sim::Rng(9),
                       &supersteps);
  app.attach();
  for (int n = 0; n < 2; ++n) {
    platform.make_scheduler<sched::CreditScheduler>(virt::NodeId{n});
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

// A recorder's histogram takes one 512 B block per octave it records and
// reserves 8 of them when it is built, so a recorder whose samples span up
// to 8 octaves records (also after a warmup reset) without the allocator,
// and each further octave costs one allocation.
TEST(AllocGuardTest, RecorderFootprintFollowsOctaves) {
  // One sample per octave: 1 us, 2 us, 4 us, ...; and a second, 1.5x larger,
  // in the same octave.
  auto record_octaves = [](metrics::DurationRecorder& r, int from, int to) {
    for (int i = from; i < to; ++i) {
      r.record(sim::SimTime{1000} << i);
      r.record(sim::SimTime{1500} << i);
    }
  };
  std::uint64_t before = allocs();
  metrics::DurationRecorder r;
  EXPECT_EQ(allocs() - before, 1u) << "building a recorder";
  before = allocs();
  record_octaves(r, 0, 8);
  EXPECT_EQ(allocs() - before, 0u) << "recording into 8 octaves";
  before = allocs();
  r.reset();
  record_octaves(r, 0, 8);
  EXPECT_EQ(allocs() - before, 0u) << "re-recording after reset()";
  for (int octave = 8; octave < 10; ++octave) {
    before = allocs();
    record_octaves(r, octave, octave + 1);
    EXPECT_EQ(allocs() - before, 1u) << "octave " << octave + 1;
  }
  EXPECT_EQ(r.count(), 20u);
}

// The paper's type-A cell (8 PCPUs and 4 VMs x 8 VCPUs per node, lu.B under
// ATC) pays its per-entity records once per node: VCPUs, PCPUs, ranks,
// barrier events, event-queue slots.  Bytes requested while building and
// starting it, per node, are an exact count (no timing noise), so they gate
// the footprint that dominates peak RSS at 16384 nodes.  Records placed in
// the simulation's arena reach the hook only as whole chunks, so the count
// is the bytes the hook saw outside those chunks plus the arena's used
// bytes.
TEST(AllocGuardTest, TypeACellHeapBytesPerNode) {
  constexpr int kNodes = 64;
  // Measured 15,247 B/node when the records reached their committed sizes
  // (Vcpu 128 B, BspRank 64 B, SyncEvent 24 B); 20,513 before.
  constexpr std::uint64_t kMaxBytesPerNode = 15'500;
  const std::uint64_t before = alloc_bytes();
  auto s = cluster::ScenarioBuilder{}
               .nodes(kNodes)
               .pcpus_per_node(8)
               .vms_per_node(4)
               .vcpus_per_vm(8)
               .approach(cluster::Approach::kATC)
               .seed(1)
               .build();
  cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
  s->start();
  const sim::Arena& arena = s->simulation().arena();
  const std::uint64_t per_node =
      (alloc_bytes() - before - arena.bytes_reserved() + arena.bytes_used()) /
      kNodes;
  EXPECT_LE(per_node, kMaxBytesPerNode);
}

// Co-scheduling keeps its gang flags, last-launch times and claimable-PCPU
// list in node-local storage sized at attach, so over a 1 s window of an
// 8-node lu.B type-A cell, after a 1 s warm-up, it allocates no more than
// the credit scheduler it builds on.  Gang launches run all through the
// window: the first comes near 40 ms (the CS golden trace).
TEST(AllocGuardTest, CoSchedulingWindowAllocatesNoMoreThanCredit) {
  auto window_allocs = [](cluster::Approach approach) {
    auto s = cluster::ScenarioBuilder{}
                 .nodes(8)
                 .pcpus_per_node(8)
                 .vms_per_node(4)
                 .vcpus_per_vm(8)
                 .approach(approach)
                 .seed(42)
                 .build();
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
    s->start();
    s->run_for(1_s);  // warm-up: queues, rings and recorders grow
    const std::uint64_t before = allocs();
    s->run_for(1_s);
    return allocs() - before;
  };
  const std::uint64_t credit = window_allocs(cluster::Approach::kCR);
  const std::uint64_t cosched = window_allocs(cluster::Approach::kCS);
  EXPECT_LE(cosched, credit);
}

}  // namespace
}  // namespace atcsim
