// End-to-end integration tests: the paper's headline behaviours on small
// (fast) configurations, plus whole-stack determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/cell.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;

// The cell these tests share: two 8-PCPU nodes with four 8-VCPU VMs each,
// seed 42, a 2 s warmup and a 3 s window, laid out as the type-A grid of
// `app` unless a test replaces the layout.
exp::Cell cell(Approach a, const std::string& app = "lu",
               workload::NpbClass cls = workload::NpbClass::kB) {
  exp::Cell c = exp::type_a(workload::npb_descriptor(app, cls));
  c.builder.nodes(2)
      .vms_per_node(4)
      .vcpus_per_vm(8)
      .pcpus_per_node(8)
      .approach(a)
      .seed(42);
  c.warmup = 2_s;
  c.measure = 3_s;
  return c;
}

// Cells of one approach under fixed guest slices, over a 1 s warmup.
std::vector<exp::Cell> slice_sweep(const std::string& app,
                                   workload::NpbClass cls,
                                   const std::vector<sim::SimTime>& slices) {
  std::vector<exp::Cell> cells;
  for (sim::SimTime slice : slices) {
    exp::Cell c = cell(Approach::kCR, app, cls);
    c.slice = slice;
    c.warmup = 1_s;
    cells.push_back(c);
  }
  return cells;
}

// Three lu.B clusters over both nodes, plus sphinx3 on node 0 (its rate is
// recorded under "sphinx3") and gcc on node 1.  Returns sphinx3's VM.
virt::Vm& lu_clusters_with_cpu_apps(Scenario& s) {
  for (int j = 0; j < 3; ++j) {
    auto vms = s.create_cluster_vms({0, 1});
    s.add_bsp_app("vc" + std::to_string(j),
                  workload::npb_descriptor("lu", workload::NpbClass::kB),
                  std::move(vms));
  }
  virt::Vm& sphinx =
      s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
  s.add_loop_vm(1, workload::cpu_descriptor("gcc"), "gcc");
  return sphinx;
}

TEST(IntegrationTest, AtcBeatsCreditByPaperMagnitude) {
  const auto r = exp::run_cells({cell(Approach::kCR), cell(Approach::kATC)});
  const double cr = r[0].mean_superstep("lu.B");
  const double atc = r[1].mean_superstep("lu.B");
  ASSERT_GT(cr, 0.0);
  ASSERT_GT(atc, 0.0);
  // Paper: 1.5x-10x gain; lu is the most communication-intensive app.
  EXPECT_LT(atc / cr, 1.0 / 1.5);
  EXPECT_GT(atc / cr, 1.0 / 30.0);
}

TEST(IntegrationTest, ApproachOrderingMatchesPaper) {
  const auto r = exp::run_cells({cell(Approach::kCR), cell(Approach::kCS),
                                 cell(Approach::kBS), cell(Approach::kATC)});
  const double cr = r[0].mean_superstep("lu.B");
  const double cs = r[1].mean_superstep("lu.B");
  const double bs = r[2].mean_superstep("lu.B");
  const double atc = r[3].mean_superstep("lu.B");
  // Fig. 10 ordering on parallel-only platforms: ATC < CS < BS <= ~CR.
  EXPECT_LT(atc, cs);
  EXPECT_LT(cs, bs);
  EXPECT_LT(bs, 1.15 * cr);
}

// Reads the slices after the run, which a CellResult does not keep, so the
// cell is built and run by hand.
TEST(IntegrationTest, AtcConvergesToMinThreshold) {
  const exp::Cell c = cell(Approach::kATC);
  auto s = c.builder.build();
  c.layout(*s);
  s->start();
  s->run_for(3_s);
  for (std::size_t i = 0; i < s->platform().vm_count(); ++i) {
    auto& vm = s->platform().vm(virt::VmId{(int)i});
    if (vm.is_parallel()) {
      EXPECT_EQ(vm.time_slice(), s->config().atc.min_threshold)
          << "vm " << vm.global_id();
    } else {
      EXPECT_EQ(vm.time_slice(), s->config().params.default_time_slice)
          << "vm " << vm.global_id();
    }
  }
}

TEST(IntegrationTest, ShorterSlicesReduceSpinLatency) {
  const auto r = exp::run_cells(
      slice_sweep("lu", workload::NpbClass::kB, {30_ms, 6_ms, 1_ms}));
  EXPECT_GT(r[0].spin_s, r[1].spin_s);
  EXPECT_GT(r[1].spin_s, r[2].spin_s);
}

TEST(IntegrationTest, SpinLatencyCorrelatesWithExecutionTime) {
  // Fig. 5's r > 0.9 claim, on a reduced sweep.
  std::vector<double> spin, exec;
  for (const exp::CellResult& r : exp::run_cells(slice_sweep(
           "cg", workload::NpbClass::kB,
           {30_ms, 12_ms, 6_ms, 1_ms, 300_us}))) {
    spin.push_back(r.spin_s);
    exec.push_back(r.mean_superstep("cg.B"));
  }
  EXPECT_GT(sim::pearson(spin, exec), 0.9);
}

TEST(IntegrationTest, OverShortSlicesHurt) {
  // Fig. 8: below the inflection point shorter slices cost more than the
  // spin-latency gain (context-switch + cache refill overhead).
  std::vector<exp::Cell> cells =
      slice_sweep("lu", workload::NpbClass::kC, {30_us, 300_us});
  for (exp::Cell& c : cells) c.measure = 4_s;
  const auto r = exp::run_cells(cells);
  EXPECT_GT(r[0].mean_superstep("lu.C"), r[1].mean_superstep("lu.C"));
}

TEST(IntegrationTest, NonParallelAppUnaffectedByAtc30) {
  std::vector<exp::Cell> cells;
  for (Approach a : {Approach::kCR, Approach::kATC}) {
    exp::Cell c = cell(a);
    c.builder.seed(7);
    c.layout = [](Scenario& s) { lu_clusters_with_cpu_apps(s); };
    cells.push_back(c);
  }
  const auto r = exp::run_cells(cells);
  EXPECT_NEAR(r[1].rates.at("sphinx3") / r[0].rates.at("sphinx3"), 1.0,
              0.05);
}

TEST(IntegrationTest, Atc6msAdminSliceDegradesCpuApps) {
  // Fig. 14: ATC(6ms) costs CPU apps some context-switch overhead.  The
  // per-seed effect is small, so compare means over several seeds rather
  // than a single (noise-dominated) pair.
  std::vector<exp::Cell> cells;  // seeds 7, 8, 9, with then without 6 ms
  for (bool admin6 : {true, false}) {
    for (std::uint64_t seed : {7u, 8u, 9u}) {
      exp::Cell c = cell(Approach::kATC);
      c.builder.seed(seed);
      c.layout = [admin6](Scenario& s) {
        virt::Vm& cpu = lu_clusters_with_cpu_apps(s);
        if (admin6) cpu.set_admin_slice(6_ms);
      };
      cells.push_back(c);
    }
  }
  const auto r = exp::run_cells(cells);
  double with6 = 0.0, without = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    with6 += r[i].rates.at("sphinx3");
    without += r[i + 3].rates.at("sphinx3");
  }
  EXPECT_LT(with6, without);
}

// Reads the network's packet counter, which a CellResult does not keep, so
// the cell is built and run by hand.
TEST(IntegrationTest, WholeStackDeterminism) {
  auto fingerprint = [] {
    const exp::Cell c = cell(Approach::kATC, "mg");
    auto s = c.builder.build();
    c.layout(*s);
    s->start();
    s->run_for(2_s);
    std::vector<double> out;
    out.push_back(s->mean_superstep_with_prefix("mg.B"));
    out.push_back(static_cast<double>(s->simulation().events_executed()));
    out.push_back(static_cast<double>(s->network().counters().packets));
    return out;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(IntegrationTest, SeedsChangeOutcomesSlightly) {
  std::vector<exp::Cell> cells;
  for (std::uint64_t seed : {1u, 2u}) {
    exp::Cell c = cell(Approach::kCR, "sp");
    c.builder.seed(seed);
    c.warmup = 1_s;
    c.measure = 2_s;
    cells.push_back(c);
  }
  const auto r = exp::run_cells(cells);
  const double a = r[0].mean_superstep("sp.B");
  const double b = r[1].mean_superstep("sp.B");
  EXPECT_NE(a, b);
  EXPECT_NEAR(a / b, 1.0, 0.5);  // different, but same regime
}

}  // namespace
}  // namespace atcsim
