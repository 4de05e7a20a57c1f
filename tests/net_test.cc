// Network tests: the split-driver path (Fig. 4), dom0 backend behaviour,
// NIC serialization, disk path, external injection.
#include <gtest/gtest.h>

#include <memory>

#include "net/network.h"
#include "sched/credit.h"
#include "virt/platform.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using virt::Action;
using virt::Vcpu;

// Keeps its VCPU runnable so deposits are delivered immediately.
class BusyWorkload : public virt::Workload {
 public:
  Action next(Vcpu&) override { return Action::compute(1_ms); }
  double cache_sensitivity() const override { return 0.0; }
  std::string name() const override { return "busy"; }
};

struct NetRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::vector<std::unique_ptr<virt::Workload>> workloads;

  explicit NetRig(int nodes, virt::ModelParams params = {}) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = 2;
    pc.params = params;
    pc.seed = 17;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
  }

  virt::Vm& busy_vm(int node) {
    virt::Vm& vm = platform->create_vm(
        virt::NodeId{node}, virt::VmType::kNonParallel,
        std::string("g").append(std::to_string(platform->vm_count())), 1);
    workloads.push_back(std::make_unique<BusyWorkload>());
    vm.vcpus()[0]->set_workload(workloads.back().get());
    return vm;
  }

  void start() {
    for (auto& node : platform->nodes()) {
      platform->set_scheduler(node->id(),
                              std::make_unique<sched::CreditScheduler>());
    }
    platform->engine().start();
  }
};

TEST(NetTest, SameNodeDeliveryGoesThroughDom0) {
  NetRig rig(1);
  virt::Vm& a = rig.busy_vm(0);
  virt::Vm& b = rig.busy_vm(0);
  rig.start();
  sim::SimTime delivered = -1;
  rig.simulation.call_at(1_ms, [&] {
    rig.network->send(a, b, 1024, [&] { delivered = rig.simulation.now(); });
  });
  rig.simulation.run_until(2_s);
  ASSERT_GE(delivered, 0);
  // dom0 must process tx + rx jobs (CPU cost) before delivery.
  EXPECT_GT(delivered, 1_ms);
  EXPECT_EQ(rig.network->counters().packets, 1u);
}

TEST(NetTest, CrossNodeDeliveryIncludesWireLatency) {
  virt::ModelParams p;
  p.wire_latency = 500_us;
  NetRig rig(2, p);
  virt::Vm& a = rig.busy_vm(0);
  virt::Vm& b = rig.busy_vm(1);
  rig.start();
  sim::SimTime delivered = -1;
  rig.simulation.call_at(1_ms, [&] {
    rig.network->send(a, b, 1024, [&] { delivered = rig.simulation.now(); });
  });
  rig.simulation.run_until(2_s);
  ASSERT_GE(delivered, 0);
  EXPECT_GT(delivered, 1_ms + 500_us);
}

TEST(NetTest, LargeMessagesPaySerialization) {
  // 10 MB at 125 MB/s = 80 ms on the wire (tx) + 80 ms (rx).
  NetRig rig(2);
  virt::Vm& a = rig.busy_vm(0);
  virt::Vm& b = rig.busy_vm(1);
  rig.start();
  sim::SimTime small = -1, big = -1;
  rig.simulation.call_at(1_ms, [&] {
    rig.network->send(a, b, 64, [&] { small = rig.simulation.now(); });
  });
  rig.simulation.call_at(500_ms, [&] {
    rig.network->send(a, b, 10 * 1024 * 1024,
                      [&] { big = rig.simulation.now(); });
  });
  rig.simulation.run_until(5_s);
  ASSERT_GE(small, 0);
  ASSERT_GE(big, 0);
  EXPECT_GT(big - 500_ms, 160_ms);       // two serialization legs
  EXPECT_LT(small - 1_ms, 20_ms);        // small message is fast
}

TEST(NetTest, BackToBackMessagesQueueOnTheNic) {
  NetRig rig(2);
  virt::Vm& a = rig.busy_vm(0);
  virt::Vm& b = rig.busy_vm(1);
  rig.start();
  std::vector<sim::SimTime> deliveries;
  rig.simulation.call_at(1_ms, [&] {
    for (int i = 0; i < 3; ++i) {
      rig.network->send(a, b, 4 * 1024 * 1024,
                        [&] { deliveries.push_back(rig.simulation.now()); });
    }
  });
  rig.simulation.run_until(10_s);
  ASSERT_EQ(deliveries.size(), 3u);
  // 4MB = 32ms serialization; arrivals are spaced by at least that.
  EXPECT_GT(deliveries[1] - deliveries[0], 25_ms);
  EXPECT_GT(deliveries[2] - deliveries[1], 25_ms);
}

TEST(NetTest, InjectReachesGuest) {
  NetRig rig(1);
  virt::Vm& a = rig.busy_vm(0);
  rig.start();
  bool got = false;
  rig.simulation.call_at(1_ms, [&] {
    rig.network->inject(a, 512, [&] { got = true; });
  });
  rig.simulation.run_until(1_s);
  EXPECT_TRUE(got);
}

TEST(NetTest, SendOutFiresAfterFabricExit) {
  virt::ModelParams p;
  p.wire_latency = 300_us;
  NetRig rig(1, p);
  virt::Vm& a = rig.busy_vm(0);
  rig.start();
  sim::SimTime exited = -1;
  rig.simulation.call_at(1_ms, [&] {
    rig.network->send_out(a, 2048, [&] { exited = rig.simulation.now(); });
  });
  rig.simulation.run_until(1_s);
  ASSERT_GE(exited, 0);
  EXPECT_GT(exited, 1_ms + 300_us);
}

TEST(NetTest, DiskRequestsCompleteWithLatencyAndBandwidth) {
  virt::ModelParams p;
  p.disk_latency = 1_ms;
  p.disk_bandwidth_bps = 100e6;
  NetRig rig(1, p);
  virt::Vm& a = rig.busy_vm(0);
  rig.start();
  sim::SimTime done = -1;
  rig.simulation.call_at(1_ms, [&] {
    // 1 MB at 100 MB/s = 10 ms + 1 ms latency.
    rig.network->submit_disk(a, 1024 * 1024,
                             [&] { done = rig.simulation.now(); });
  });
  rig.simulation.run_until(2_s);
  ASSERT_GE(done, 0);
  EXPECT_GT(done, 1_ms + 11_ms);
  EXPECT_EQ(rig.network->counters().disk_ops, 1u);
}

TEST(NetTest, ConsecutiveDiskRequestsSerialize) {
  virt::ModelParams p;
  p.disk_latency = 5_ms;
  NetRig rig(1, p);
  virt::Vm& a = rig.busy_vm(0);
  rig.start();
  std::vector<sim::SimTime> done;
  rig.simulation.call_at(1_ms, [&] {
    for (int i = 0; i < 2; ++i) {
      rig.network->submit_disk(a, 4096,
                               [&] { done.push_back(rig.simulation.now()); });
    }
  });
  rig.simulation.run_until(2_s);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_GE(done[1] - done[0], 5_ms);
}

TEST(NetTest, Dom0BlocksWhenIdleAndWakesOnWork) {
  NetRig rig(1);
  virt::Vm& a = rig.busy_vm(0);
  rig.start();
  rig.simulation.run_until(50_ms);
  virt::Vm* dom0 = rig.platform->nodes()[0]->dom0();
  EXPECT_EQ(dom0->vcpus()[0]->state(), virt::VcpuState::kBlocked);
  bool delivered = false;
  rig.network->send(a, a, 64, [&] { delivered = true; });
  rig.simulation.run_until(200_ms);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(dom0->vcpus()[0]->state(), virt::VcpuState::kBlocked);
  EXPECT_GT(dom0->totals().run_time, 0);
}

TEST(NetTest, CountersAccumulate) {
  NetRig rig(1);
  virt::Vm& a = rig.busy_vm(0);
  virt::Vm& b = rig.busy_vm(0);
  rig.start();
  rig.simulation.call_at(1_ms, [&] {
    rig.network->send(a, b, 1000, [] {});
    rig.network->send(b, a, 2000, [] {});
    rig.network->inject(a, 500, [] {});
  });
  rig.simulation.run_until(1_s);
  EXPECT_EQ(rig.network->counters().packets, 3u);
  EXPECT_EQ(rig.network->counters().bytes, 3500u);
}

}  // namespace
}  // namespace atcsim
