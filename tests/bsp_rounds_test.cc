// BSP synchronization-round semantics: the intra-VM LHP rounds that give
// co-scheduling something to win (DESIGN.md decision 7).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "net/network.h"
#include "sched/credit.h"
#include "virt/platform.h"
#include "workload/bsp_app.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

struct Rig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<net::VirtualNetwork> network;
  std::vector<std::unique_ptr<workload::BspApp>> apps;

  explicit Rig(int pcpus = 2, std::uint64_t seed = 51) {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = pcpus;
    pc.seed = seed;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    network = std::make_unique<net::VirtualNetwork>(*platform);
    network->attach();
  }

  workload::BspApp& app(int vcpus, const workload::BspConfig& cfg) {
    return app(vcpus, workload::Descriptor::from_bsp(cfg), nullptr);
  }

  workload::BspApp& app(int vcpus, const workload::Descriptor& desc,
                        metrics::DurationRecorder* supersteps) {
    virt::Vm& vm = platform->create_vm(
        virt::NodeId{0}, virt::VmType::kParallel,
        "bsp" + std::to_string(platform->vm_count()), vcpus);
    apps.push_back(std::make_unique<workload::BspApp>(
        std::vector<virt::Vm*>{&vm}, desc, sim::Rng(9), supersteps));
    apps.back()->attach();
    return *apps.back();
  }

  void start() {
    platform->make_scheduler<sched::CreditScheduler>(virt::NodeId{0});
    platform->engine().start();
  }

  void run(sim::SimTime t) {
    start();
    simulation.run_until(t);
  }
};

workload::BspConfig cfg_with_rounds(int rounds) {
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 4_ms;
  cfg.sync_rounds = rounds;
  cfg.compute_jitter = 0.0;
  return cfg;
}

TEST(BspRoundsTest, UncontendedRoundsAreFree) {
  // With a dedicated PCPU per rank, extra intra-VM rounds add only the
  // (zero-latency) barrier bookkeeping: superstep rate is unchanged.
  auto steps = [](int rounds) {
    Rig rig(2);
    auto& app = rig.app(2, cfg_with_rounds(rounds));
    rig.run(2_s);
    return app.supersteps_completed();
  };
  const auto one = steps(1);
  const auto four = steps(4);
  EXPECT_NEAR(static_cast<double>(four) / static_cast<double>(one), 1.0,
              0.06);
}

TEST(BspRoundsTest, ContendedRoundsMultiplySuperstepCost) {
  // Three 2-VCPU spinning apps share 2 PCPUs (3:1 overcommit).  Whether an
  // app's two ranks keep landing on the PCPUs together depends on the seed,
  // so the one-round/four-round superstep ratio is bimodal across seeds:
  // about 1x where the siblings stay co-resident, several times where every
  // additional sync round costs one more scheduling rotation.  Hence the
  // seed range: extra rounds never help, and on several seeds they
  // multiply the superstep cost.
  auto steps = [](int rounds, std::uint64_t seed) {
    Rig rig(2, seed);
    auto& a = rig.app(2, cfg_with_rounds(rounds));
    rig.app(2, cfg_with_rounds(rounds));
    rig.app(2, cfg_with_rounds(rounds));
    rig.run(12_s);
    return a.supersteps_completed();
  };
  int multiplied = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto one = steps(1, seed);
    const auto four = steps(4, seed);
    EXPECT_LE(four, one) << "seed " << seed;
    if (one >= 3 * four) ++multiplied;
  }
  EXPECT_GE(multiplied, 4)
      << "extra sync rounds should cost >= 3x on several seeds";
}

TEST(BspRoundsTest, SuperstepCountsMatchAcrossClusterVms) {
  Rig rig(2);
  auto& app = rig.app(2, cfg_with_rounds(3));
  rig.run(1_s);
  EXPECT_GT(app.supersteps_completed(), 10u);
  // Every rank observed every generation: total spin episodes per VM equal
  // ranks x rounds x supersteps (within the in-flight margin of 1).
  const virt::Vm& vm = *app.vms()[0];
  const std::uint64_t expected =
      vm.vcpu_count() * 3 * app.supersteps_completed();
  EXPECT_NEAR(static_cast<double>(vm.totals().spin_episodes),
              static_cast<double>(expected),
              static_cast<double>(vm.vcpu_count() * 3));
}

TEST(BspRoundsTest, DeterministicAcrossRuns) {
  auto fingerprint = [] {
    Rig rig(2, 77);
    auto& app = rig.app(4, cfg_with_rounds(2));
    rig.run(1_s);
    return app.supersteps_completed();
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(BspRoundsTest, SuperstepCountRunsOnAcrossTheGenerationWrap) {
  // A rank counts barrier generations in 16 bits and reads them only modulo
  // the generation window.  With a 5 us compute phase one VM passes 2^16
  // global barriers in about a third of a simulated second.
  Rig rig(2);
  metrics::DurationRecorder supersteps;
  const auto desc = workload::Descriptor::parse(
      "workload tiny; phase compute 5us; phase local_barrier; "
      "phase barrier 64B");
  auto& app = rig.app(2, desc, &supersteps);
  rig.start();
  std::uint64_t last = 0;
  for (int i = 1; i <= 10; ++i) {
    rig.simulation.run_until(i * 40_ms);
    EXPECT_GT(app.supersteps_completed(), last) << "window " << i;
    last = app.supersteps_completed();
  }
  EXPECT_GT(last, 70'000u);
  EXPECT_EQ(supersteps.count(), last);
}

TEST(BspRoundsTest, RejectsOutOfRangeSyncRounds) {
  Rig rig(2);
  virt::Vm& vm = rig.platform->create_vm(virt::NodeId{0},
                                         virt::VmType::kParallel, "bsp-v", 2);
  const std::vector<virt::Vm*> vms{&vm};
  const auto build = [&vms](int rounds) {
    workload::BspApp(vms,
                     workload::Descriptor::from_bsp(cfg_with_rounds(rounds)),
                     sim::Rng(9), nullptr);
  };
  for (int rounds : {0, -1, 33, 100}) {
    EXPECT_THROW(build(rounds), std::invalid_argument)
        << "sync_rounds=" << rounds << " should be rejected";
  }
  // Boundaries of the documented [1, 32] range are accepted.
  EXPECT_NO_THROW(build(1));
  EXPECT_NO_THROW(build(32));
}

TEST(BspRoundsTest, JitterSpreadsArrivals) {
  // With jitter, the non-laggard ranks accumulate nonzero spin wall time
  // even on an uncontended host.
  Rig rig(4);
  workload::BspConfig cfg = cfg_with_rounds(1);
  cfg.compute_jitter = 0.2;
  auto& app = rig.app(4, cfg);
  rig.run(2_s);
  EXPECT_GT(app.vms()[0]->totals().spin_wall, 0);
}

}  // namespace
}  // namespace atcsim
