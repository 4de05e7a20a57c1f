// End-to-end integration tests: the paper's headline behaviours on small
// (fast) configurations, plus whole-stack determinism.
#include <gtest/gtest.h>

#include <memory>

#include "atc/controller.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;

std::unique_ptr<Scenario> small_scenario(Approach a, std::uint64_t seed = 42) {
  return cluster::ScenarioBuilder{}
      .nodes(2)
      .vms_per_node(4)
      .vcpus_per_vm(8)
      .pcpus_per_node(8)
      .approach(a)
      .seed(seed)
      .build();
}

double run_lu(Approach a, sim::SimTime warm = 2_s, sim::SimTime meas = 3_s) {
  auto s = small_scenario(a);
  cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
  s->start();
  s->warmup_and_measure(warm, meas);
  return s->mean_superstep_with_prefix("lu.B");
}

TEST(IntegrationTest, AtcBeatsCreditByPaperMagnitude) {
  const double cr = run_lu(Approach::kCR);
  const double atc = run_lu(Approach::kATC);
  ASSERT_GT(cr, 0.0);
  ASSERT_GT(atc, 0.0);
  // Paper: 1.5x-10x gain; lu is the most communication-intensive app.
  EXPECT_LT(atc / cr, 1.0 / 1.5);
  EXPECT_GT(atc / cr, 1.0 / 30.0);
}

TEST(IntegrationTest, ApproachOrderingMatchesPaper) {
  const double cr = run_lu(Approach::kCR);
  const double cs = run_lu(Approach::kCS);
  const double bs = run_lu(Approach::kBS);
  const double atc = run_lu(Approach::kATC);
  // Fig. 10 ordering on parallel-only platforms: ATC < CS < BS <= ~CR.
  EXPECT_LT(atc, cs);
  EXPECT_LT(cs, bs);
  EXPECT_LT(bs, 1.15 * cr);
}

TEST(IntegrationTest, AtcConvergesToMinThreshold) {
  auto sp = small_scenario(Approach::kATC);
  Scenario& s = *sp;
  cluster::build_type_a(s, "lu", workload::NpbClass::kB);
  s.start();
  s.run_for(3_s);
  for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
    auto& vm = s.platform().vm(virt::VmId{(int)i});
    if (vm.is_parallel()) {
      EXPECT_EQ(vm.time_slice(), s.config().atc.min_threshold) << vm.name();
    } else {
      EXPECT_EQ(vm.time_slice(), s.config().atc.default_slice) << vm.name();
    }
  }
}

TEST(IntegrationTest, ShorterSlicesReduceSpinLatency) {
  auto spin_at = [](sim::SimTime slice) {
    auto sp = small_scenario(Approach::kCR);
    Scenario& s = *sp;
    cluster::build_type_a(s, "lu", workload::NpbClass::kB);
    s.start();
    for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
      auto& vm = s.platform().vm(virt::VmId{(int)i});
      if (!vm.is_dom0()) vm.set_time_slice(slice);
    }
    s.warmup_and_measure(1_s, 3_s);
    return s.avg_parallel_spin_latency();
  };
  const double at30 = spin_at(30_ms);
  const double at6 = spin_at(6_ms);
  const double at1 = spin_at(1_ms);
  EXPECT_GT(at30, at6);
  EXPECT_GT(at6, at1);
}

TEST(IntegrationTest, SpinLatencyCorrelatesWithExecutionTime) {
  // Fig. 5's r > 0.9 claim, on a reduced sweep.
  std::vector<double> spin, exec;
  for (sim::SimTime slice : {30_ms, 12_ms, 6_ms, 1_ms, 300_us}) {
    auto sp = small_scenario(Approach::kCR);
    Scenario& s = *sp;
    cluster::build_type_a(s, "cg", workload::NpbClass::kB);
    s.start();
    for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
      auto& vm = s.platform().vm(virt::VmId{(int)i});
      if (!vm.is_dom0()) vm.set_time_slice(slice);
    }
    s.warmup_and_measure(1_s, 3_s);
    spin.push_back(s.avg_parallel_spin_latency());
    exec.push_back(s.mean_superstep_with_prefix("cg.B"));
  }
  EXPECT_GT(sim::pearson(spin, exec), 0.9);
}

TEST(IntegrationTest, OverShortSlicesHurt) {
  // Fig. 8: below the inflection point shorter slices cost more than the
  // spin-latency gain (context-switch + cache refill overhead).
  auto exec_at = [](sim::SimTime slice) {
    auto sp = small_scenario(Approach::kCR);
    Scenario& s = *sp;
    cluster::build_type_a(s, "lu", workload::NpbClass::kC);
    s.start();
    for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
      auto& vm = s.platform().vm(virt::VmId{(int)i});
      if (!vm.is_dom0()) vm.set_time_slice(slice);
    }
    s.warmup_and_measure(1_s, 4_s);
    return s.mean_superstep_with_prefix("lu.C");
  };
  EXPECT_GT(exec_at(30_us), exec_at(300_us));
}

TEST(IntegrationTest, NonParallelAppUnaffectedByAtc30) {
  auto sphinx_rate = [](Approach a) {
    auto sp = small_scenario(a, 7);
    Scenario& s = *sp;
    for (int j = 0; j < 3; ++j) {
      auto vms = s.create_cluster_vms("vc" + std::to_string(j), {0, 1});
      s.add_bsp_app("vc" + std::to_string(j),
                    workload::npb_descriptor("lu", workload::NpbClass::kB),
                    std::move(vms));
    }
    s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
    s.add_loop_vm(1, workload::cpu_descriptor("gcc"), "gcc");
    s.start();
    s.warmup_and_measure(2_s, 3_s);
    return s.metrics().rate("sphinx3").per_second();
  };
  const double cr = sphinx_rate(Approach::kCR);
  const double atc = sphinx_rate(Approach::kATC);
  EXPECT_NEAR(atc / cr, 1.0, 0.05);
}

TEST(IntegrationTest, Atc6msAdminSliceDegradesCpuApps) {
  auto sphinx_rate = [](bool admin6, std::uint64_t seed) {
    auto sp = small_scenario(Approach::kATC, seed);
    Scenario& s = *sp;
    for (int j = 0; j < 3; ++j) {
      auto vms = s.create_cluster_vms("vc" + std::to_string(j), {0, 1});
      s.add_bsp_app("vc" + std::to_string(j),
                    workload::npb_descriptor("lu", workload::NpbClass::kB),
                    std::move(vms));
    }
    virt::Vm& cpu =
        s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
    if (admin6) cpu.set_admin_slice(6_ms);
    s.start();
    s.warmup_and_measure(2_s, 3_s);
    return s.metrics().rate("sphinx3").per_second();
  };
  // Fig. 14: ATC(6ms) costs CPU apps some context-switch overhead.  The
  // per-seed effect is small, so compare means over several seeds rather
  // than a single (noise-dominated) pair.
  double with6 = 0.0, without = 0.0;
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    with6 += sphinx_rate(true, seed);
    without += sphinx_rate(false, seed);
  }
  EXPECT_LT(with6, without);
}

TEST(IntegrationTest, WholeStackDeterminism) {
  auto fingerprint = [] {
    auto sp = small_scenario(Approach::kATC);
    Scenario& s = *sp;
    cluster::build_type_a(s, "mg", workload::NpbClass::kB);
    s.start();
    s.run_for(2_s);
    std::vector<double> out;
    out.push_back(s.mean_superstep_with_prefix("mg.B"));
    out.push_back(static_cast<double>(s.simulation().events_executed()));
    out.push_back(static_cast<double>(s.network().counters().packets));
    return out;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(IntegrationTest, SeedsChangeOutcomesSlightly) {
  auto mean_at = [](std::uint64_t seed) {
    auto sp = small_scenario(Approach::kCR, seed);
    Scenario& s = *sp;
    cluster::build_type_a(s, "sp", workload::NpbClass::kB);
    s.start();
    s.warmup_and_measure(1_s, 2_s);
    return s.mean_superstep_with_prefix("sp.B");
  };
  const double a = mean_at(1);
  const double b = mean_at(2);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a / b, 1.0, 0.5);  // different, but same regime
}

}  // namespace
}  // namespace atcsim
