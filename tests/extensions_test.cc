// Tests for the extension features: the Sec. VI future-work items
// (non-intrusive VM classification, adaptive non-parallel slices), a lone
// CPU hog's share, pipelined disk I/O, and latency percentiles.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "atc/classifier.h"
#include "atc/controller.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/cell.h"
#include "metrics/recorders.h"
#include "sched/credit.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"
#include "workload/apps.h"
#include "workload/bsp_app.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;

// ------------------------------------------------------------- classifier

struct ClsRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::unique_ptr<sync::PeriodMonitor> monitor;
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<std::unique_ptr<workload::BspApp>> apps;

  ClsRig() {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = 2;
    pc.seed = 31;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
    monitor = std::make_unique<sync::PeriodMonitor>(*platform);
  }

  // Deliberately mislabel everything as kNonParallel: the classifier must
  // recover the truth from behaviour alone.
  virt::Vm& bsp_vm() {
    virt::Vm& vm = platform->create_vm(virt::NodeId{0},
                                       virt::VmType::kNonParallel, 2);
    workload::BspConfig cfg;
    cfg.compute_per_superstep = 2_ms;
    apps.push_back(std::make_unique<workload::BspApp>(
        std::vector<virt::Vm*>{&vm}, workload::Descriptor::from_bsp(cfg),
        sim::Rng(1), nullptr));
    apps.back()->attach();
    return vm;
  }

  virt::Vm& cpu_vm() {
    virt::Vm& vm = platform->create_vm(virt::NodeId{0},
                                       virt::VmType::kNonParallel, 1);
    workloads.push_back(std::make_unique<workload::LoopWorkload>(
        vm, workload::cpu_descriptor("gcc"), sim::Rng(2), nullptr));
    vm.vcpus()[0].set_workload(workloads.back().get());
    return vm;
  }

  void start(std::function<void()> on_period) {
    platform->make_scheduler<sched::CreditScheduler>(virt::NodeId{0});
    monitor->start(std::move(on_period));
    platform->engine().start();
  }
};

TEST(ClassifierTest, DetectsParallelBehaviourWithoutLabels) {
  ClsRig rig;
  virt::Vm& bsp = rig.bsp_vm();
  virt::Vm& cpu = rig.cpu_vm();
  atc::VmClassifier cls(*rig.platform->nodes()[0], *rig.monitor);
  rig.start([&] { cls.on_period(); });
  rig.simulation.run_until(500_ms);
  EXPECT_TRUE(cls.is_parallel(bsp));
  EXPECT_FALSE(cls.is_parallel(cpu));
}

TEST(ClassifierTest, Dom0NeverLabelled) {
  ClsRig rig;
  rig.bsp_vm();
  atc::VmClassifier cls(*rig.platform->nodes()[0], *rig.monitor);
  rig.start([&] { cls.on_period(); });
  rig.simulation.run_until(500_ms);
  EXPECT_FALSE(cls.is_parallel(*rig.platform->nodes()[0]->dom0()));
}

TEST(AtcAutoClassifyTest, MatchesDeclaredTypesEndToEnd) {
  // Two cells, identical workloads: in one ATC reads the declared VM types,
  // in the other auto_classify makes it ignore them and rediscover which
  // VMs run parallel code.  ATC must accelerate the parallel app in both.
  std::vector<exp::Cell> cells;
  for (bool auto_classify : {false, true}) {
    atc::AtcConfig atc_cfg;
    atc_cfg.auto_classify = auto_classify;
    exp::Cell c =
        exp::type_a(workload::npb_descriptor("lu", workload::NpbClass::kB));
    c.builder.nodes(2).approach(Approach::kATC).seed(42).atc(atc_cfg);
    c.warmup = 2_s;
    c.measure = 3_s;
    cells.push_back(c);
  }
  const auto r = exp::run_cells(cells);
  const double declared = r[0].mean_superstep("lu.B");
  const double classified = r[1].mean_superstep("lu.B");
  ASSERT_GT(declared, 0.0);
  ASSERT_GT(classified, 0.0);
  EXPECT_NEAR(classified / declared, 1.0, 0.25);
}

TEST(AtcAdaptiveNonParallelTest, LatencySensitiveVmGetsShortSlice) {
  atc::AtcConfig atc_cfg;
  atc_cfg.adaptive_nonparallel = true;
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .approach(Approach::kATC)
                .seed(9)
                .atc(atc_cfg)
                .build();
  Scenario& s = *sp;
  auto vms = s.create_cluster_vms({0, 1});
  s.add_bsp_app("vc", workload::npb_descriptor("cg", workload::NpbClass::kB),
                std::move(vms));
  virt::Vm& web = s.add_web_vm(0, 100.0, "web");       // wakes per request
  virt::Vm& cpu =
      s.add_loop_vm(1, workload::cpu_descriptor("gcc"), "gcc");  // never
  s.start();
  s.run_for(2_s);
  EXPECT_EQ(web.time_slice(), atc::AtcController::kLatencySensitiveSlice);
  EXPECT_EQ(cpu.time_slice(), s.config().params.default_time_slice);
}

// -------------------------------------------------------------- lone hog

class HogWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(5_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
};

struct HogRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::vector<std::unique_ptr<HogWorkload>> hogs;

  explicit HogRig(int pcpus) {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = pcpus;
    pc.seed = 13;
    platform = std::make_unique<virt::Platform>(simulation, pc);
  }

  virt::Vm& hog_vm(int vcpus) {
    virt::Vm& vm = platform->create_vm(
        virt::NodeId{0}, virt::VmType::kNonParallel, vcpus);
    for (auto& v : vm.vcpus()) {
      hogs.push_back(std::make_unique<HogWorkload>());
      v.set_workload(hogs.back().get());
    }
    return vm;
  }

  void start() {
    platform->make_scheduler<sched::CreditScheduler>(virt::NodeId{0});
    platform->engine().start();
  }
};

// A lone CPU hog on an otherwise idle host keeps a whole PCPU.
TEST(CreditCapTest, UncappedVmIsNotLimited) {
  HogRig rig(2);
  virt::Vm& vm = rig.hog_vm(1);
  rig.start();
  rig.simulation.run_until(5_s);
  EXPECT_GT(sim::to_seconds(vm.totals().run_time), 4.5);
}

// ------------------------------------------------------------- percentiles

TEST(LatencyPercentileTest, ExactQuantiles) {
  metrics::DurationRecorder r;
  for (int i = 1; i <= 100; ++i) r.record(i * 1_ms);
  EXPECT_NEAR(r.quantile_seconds(0.0), 0.001, 1e-9);
  EXPECT_NEAR(r.quantile_seconds(0.5), 0.050, 0.002);
  EXPECT_NEAR(r.p95_seconds(), 0.095, 0.002);
  EXPECT_NEAR(r.p99_seconds(), 0.099, 0.002);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.100, 1e-9);
}

TEST(LatencyPercentileTest, RecordAfterQuantileStillSorted) {
  metrics::DurationRecorder r;
  r.record(5_ms);
  r.record(1_ms);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.005, 1e-9);
  r.record(9_ms);
  EXPECT_NEAR(r.quantile_seconds(1.0), 0.009, 1e-9);
  EXPECT_EQ(r.count(), 3u);
}

TEST(LatencyPercentileTest, EmptyIsZero) {
  metrics::DurationRecorder r;
  EXPECT_EQ(r.p99_seconds(), 0.0);
}

}  // namespace
}  // namespace atcsim
