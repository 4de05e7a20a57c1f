// Workload tests: BSP applications, NPB profiles, and the non-parallel
// application models (CPU, stream, ping, disk, web).
#include <gtest/gtest.h>

#include <memory>

#include "metrics/recorders.h"
#include "net/network.h"
#include "sched/credit.h"
#include "virt/platform.h"
#include "workload/apps.h"
#include "workload/bsp_app.h"
#include "workload/npb_profiles.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

struct WlRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  metrics::MetricsRegistry metrics{simulation};
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<std::unique_ptr<workload::BspApp>> apps;

  explicit WlRig(int nodes = 1, int pcpus = 4) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = pcpus;
    pc.seed = 23;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
  }

  virt::Vm& vm(int node, int vcpus, virt::VmType type) {
    return platform->create_vm(virt::NodeId{node}, type,
                               "w" + std::to_string(platform->vm_count()),
                               vcpus);
  }

  void start() {
    for (auto& node : platform->nodes()) {
      platform->make_scheduler<sched::CreditScheduler>(node->id());
    }
    platform->engine().start();
  }
};

TEST(BspTest, SingleVmAppCompletesSupersteps) {
  WlRig rig;
  virt::Vm& vm = rig.vm(0, 4, virt::VmType::kParallel);
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 2_ms;
  cfg.sync_rounds = 2;
  auto& steps = rig.metrics.durations("app/superstep");
  workload::BspApp app({&vm}, workload::Descriptor::from_bsp(cfg),
                       sim::Rng(1), &steps);
  app.attach();
  rig.start();
  rig.simulation.run_until(2_s);
  EXPECT_GT(app.supersteps_completed(), 50u);
  EXPECT_EQ(steps.count(), app.supersteps_completed());
}

TEST(BspTest, UncontendedSuperstepTakesAboutComputeTime) {
  // 4 ranks on 4 PCPUs, no co-tenants: superstep ~= compute (plus jitter).
  WlRig rig;
  virt::Vm& vm = rig.vm(0, 4, virt::VmType::kParallel);
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 4_ms;
  cfg.sync_rounds = 1;
  cfg.compute_jitter = 0.0;
  auto& steps = rig.metrics.durations("app/superstep");
  workload::BspApp app({&vm}, workload::Descriptor::from_bsp(cfg),
                       sim::Rng(1), &steps);
  app.attach();
  rig.start();
  rig.simulation.run_until(1_s);
  ASSERT_GT(steps.count(), 10u);
  EXPECT_NEAR(steps.stats().mean(), 4e-3, 1e-3);
}

TEST(BspTest, CrossVmAppSynchronizesThroughTheNetwork) {
  WlRig rig(2);
  virt::Vm& a = rig.vm(0, 2, virt::VmType::kParallel);
  virt::Vm& b = rig.vm(1, 2, virt::VmType::kParallel);
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 2_ms;
  cfg.sync_rounds = 1;
  cfg.bytes_per_msg = 64 * 1024;
  workload::BspApp app({&a, &b}, workload::Descriptor::from_bsp(cfg),
                       sim::Rng(1), nullptr);
  app.attach();
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_GT(app.supersteps_completed(), 20u);
  // arrive + release messages flowed every superstep.
  EXPECT_GE(rig.network->counters().packets,
            2 * (app.supersteps_completed() - 1));
}

TEST(BspTest, ContendedSuperstepsSlowWithCoTenants) {
  auto measure = [](int clusters) {
    WlRig rig(1, 2);
    workload::BspConfig cfg;
    cfg.compute_per_superstep = 2_ms;
    cfg.sync_rounds = 2;
    std::vector<workload::BspApp*> apps;
    for (int c = 0; c < clusters; ++c) {
      virt::Vm& vm = rig.vm(0, 2, virt::VmType::kParallel);
      rig.apps.push_back(std::make_unique<workload::BspApp>(
          std::vector<virt::Vm*>{&vm}, workload::Descriptor::from_bsp(cfg),
          sim::Rng(1), nullptr));
      rig.apps.back()->attach();
      apps.push_back(rig.apps.back().get());
    }
    rig.start();
    rig.simulation.run_until(5_s);
    return apps[0]->supersteps_completed();
  };
  EXPECT_GT(measure(1), 2 * measure(3));
}

TEST(BspTest, SpinLatencyRecordedPerVm) {
  WlRig rig(1, 2);
  virt::Vm& a = rig.vm(0, 2, virt::VmType::kParallel);
  virt::Vm& b = rig.vm(0, 2, virt::VmType::kParallel);
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 2_ms;
  const workload::Descriptor desc = workload::Descriptor::from_bsp(cfg);
  workload::BspApp app1({&a}, desc, sim::Rng(1), nullptr);
  workload::BspApp app2({&b}, desc, sim::Rng(2), nullptr);
  app1.attach();
  app2.attach();
  rig.start();
  rig.simulation.run_until(2_s);
  EXPECT_GT(a.totals().spin_episodes, 0u);
  EXPECT_GT(a.totals().spin_wall, 0);
}

TEST(NpbProfilesTest, AllSixAppsExist) {
  for (const auto& app : workload::npb_apps()) {
    const auto cfg = workload::npb_profile(app, workload::NpbClass::kB);
    EXPECT_GT(cfg.compute_per_superstep, 0) << app;
    EXPECT_GT(cfg.bytes_per_msg, 0u) << app;
    EXPECT_GE(cfg.sync_rounds, 1) << app;
    EXPECT_EQ(cfg.name, app + ".B");
  }
}

TEST(NpbProfilesTest, ClassScaling) {
  const auto b = workload::npb_profile("lu", workload::NpbClass::kB);
  const auto c = workload::npb_profile("lu", workload::NpbClass::kC);
  const auto a = workload::npb_profile("lu", workload::NpbClass::kA);
  EXPECT_GT(c.compute_per_superstep, b.compute_per_superstep);
  EXPECT_LT(a.compute_per_superstep, b.compute_per_superstep);
  EXPECT_GT(c.bytes_per_msg, b.bytes_per_msg);
}

TEST(NpbProfilesTest, LuIsFinestGrainIsIsCoarsest) {
  const auto lu = workload::npb_profile("lu", workload::NpbClass::kB);
  const auto is = workload::npb_profile("is", workload::NpbClass::kB);
  EXPECT_LT(lu.compute_per_superstep, is.compute_per_superstep);
  EXPECT_GT(lu.sync_rounds, is.sync_rounds);
  EXPECT_LT(lu.bytes_per_msg, is.bytes_per_msg);
}

TEST(NpbProfilesTest, UnknownAppThrows) {
  EXPECT_THROW(workload::npb_profile("ep", workload::NpbClass::kB),
               std::invalid_argument);
}

TEST(CpuWorkloadTest, CountsCompletedWork) {
  WlRig rig;
  virt::Vm& vm = rig.vm(0, 1, virt::VmType::kNonParallel);
  rig.workloads.push_back(std::make_unique<workload::LoopWorkload>(
      vm, workload::cpu_descriptor("sphinx3"), sim::Rng(4),
      &rig.metrics.rate("cpu")));
  vm.vcpus()[0].set_workload(rig.workloads.back().get());
  rig.start();
  rig.simulation.run_until(2_s);
  // Alone on 4 PCPUs: throughput ~= 1 CPU-second per second.
  EXPECT_NEAR(rig.metrics.rate("cpu").per_second(), 1.0, 0.05);
}

TEST(CpuWorkloadTest, StreamReportsBandwidthUnits) {
  const auto desc = workload::cpu_descriptor("stream");
  EXPECT_GT(desc.rate_units, 1.0);         // MB per CPU-second
  EXPECT_GT(desc.cache_sensitivity, 1.5);  // bandwidth-bound
}

TEST(PingTest, RecordsRoundTrips) {
  WlRig rig(2);
  virt::Vm& pinger = rig.vm(0, 1, virt::VmType::kNonParallel);
  virt::Vm& peer = rig.vm(1, 1, virt::VmType::kNonParallel);
  auto& rtt = rig.metrics.latency("rtt");
  rig.workloads.push_back(
      std::make_unique<workload::PingWorkload>(pinger, peer, &rtt));
  pinger.vcpus()[0].set_workload(rig.workloads.back().get());
  rig.workloads.push_back(std::make_unique<workload::IdleServerWorkload>());
  peer.vcpus()[0].set_workload(rig.workloads.back().get());
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_GT(rtt.count(), 50u);
  // RTT at least two wire crossings.
  EXPECT_GT(rtt.stats().min(), sim::to_seconds(2 * 60_us));
}

TEST(PingTest, RttGrowsWhenPeerContended) {
  auto measure = [](bool contended) {
    WlRig rig(2, 1);
    virt::Vm& pinger = rig.vm(0, 1, virt::VmType::kNonParallel);
    virt::Vm& peer = rig.vm(1, 1, virt::VmType::kNonParallel);
    auto& rtt = rig.metrics.latency("rtt");
    rig.workloads.push_back(
        std::make_unique<workload::PingWorkload>(pinger, peer, &rtt));
    pinger.vcpus()[0].set_workload(rig.workloads.back().get());
    rig.workloads.push_back(std::make_unique<workload::IdleServerWorkload>());
    peer.vcpus()[0].set_workload(rig.workloads.back().get());
    if (contended) {
      // A spinning co-tenant on the peer's node delays its scheduling.
      virt::Vm& spin = rig.vm(1, 1, virt::VmType::kParallel);
      workload::BspConfig cfg;
      cfg.compute_per_superstep = 5_ms;
      rig.apps.push_back(std::make_unique<workload::BspApp>(
          std::vector<virt::Vm*>{&spin}, workload::Descriptor::from_bsp(cfg),
          sim::Rng(1), nullptr));
      rig.apps.back()->attach();
    }
    rig.start();
    rig.simulation.run_until(3_s);
    return rtt.mean_seconds();
  };
  EXPECT_GT(measure(true), 2 * measure(false));
}

TEST(DiskWorkloadTest, ThroughputBoundedByDiskBandwidth) {
  WlRig rig;
  virt::Vm& vm = rig.vm(0, 1, virt::VmType::kNonParallel);
  auto& mb = rig.metrics.rate("disk");
  rig.workloads.push_back(std::make_unique<workload::DiskWorkload>(vm, &mb));
  vm.vcpus()[0].set_workload(rig.workloads.back().get());
  rig.start();
  rig.simulation.run_until(3_s);
  const double mbps = mb.per_second();
  EXPECT_GT(mbps, 10.0);
  // Disk is 120 MB/s; throughput can't exceed it.
  EXPECT_LT(mbps, 120.0);
}

TEST(WebTest, ServerAnswersOpenLoopClients) {
  WlRig rig;
  virt::Vm& vm = rig.vm(0, 1, virt::VmType::kNonParallel);
  auto& resp = rig.metrics.latency("resp");
  auto server =
      std::make_unique<workload::WebServerWorkload>(vm, &resp, sim::Rng(9));
  vm.vcpus()[0].set_workload(server.get());
  workload::HttperfClient client(vm, *server, 100.0, sim::Rng(10));
  rig.workloads.push_back(std::move(server));
  client.start();
  rig.start();
  rig.simulation.run_until(2_s);
  EXPECT_NEAR(static_cast<double>(resp.count()), 200.0, 60.0);
  // Response time at least service time (~1ms).
  EXPECT_GT(resp.stats().min(), 0.8e-3);
}

}  // namespace
}  // namespace atcsim
