// ATC core tests: Algorithm 1 (time-slice computation), the per-node
// controller (Algorithm 2), and the Euclidean-metric threshold study.
#include <gtest/gtest.h>

#include <memory>

#include "atc/algorithm.h"
#include "atc/controller.h"
#include "atc/threshold.h"
#include "sched/credit.h"
#include "simcore/rng.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"

namespace atcsim::atc {
namespace {

using namespace sim::time_literals;
using sim::SimTime;

AtcConfig cfg() {
  AtcConfig c;
  c.default_slice = 30_ms;
  c.min_threshold = 300_us;
  c.alpha = 1_ms;
  c.beta = 100_us;
  return c;
}

PeriodSample S(SimTime lat, SimTime ts) { return PeriodSample{lat, ts}; }

TEST(Algorithm1Test, RisingLatencyShortensByAlpha) {
  const SimTime ts = compute_time_slice(cfg(), S(1_ms, 30_ms), S(2_ms, 30_ms),
                                        S(3_ms, 30_ms));
  EXPECT_EQ(ts, 29_ms);
}

TEST(Algorithm1Test, FlatLatencyHoldsSlice) {
  const SimTime ts = compute_time_slice(cfg(), S(2_ms, 30_ms), S(2_ms, 30_ms),
                                        S(2_ms, 30_ms));
  EXPECT_EQ(ts, 30_ms);
}

TEST(Algorithm1Test, FallingLatencyWithoutSliceChangeHolds) {
  // Latency improving on its own (e.g. app entering a lighter phase): no
  // reason to shrink further.
  const SimTime ts = compute_time_slice(cfg(), S(3_ms, 30_ms), S(2_ms, 30_ms),
                                        S(1_ms, 30_ms));
  EXPECT_EQ(ts, 30_ms);
}

TEST(Algorithm1Test, FallingLatencyCausedBySliceDecreaseReinforces) {
  // Three falling periods while the slice also fell: the improvement is
  // attributed to the shorter slice, so keep shrinking.
  const SimTime ts = compute_time_slice(cfg(), S(3_ms, 10_ms), S(2_ms, 9_ms),
                                        S(1_ms, 8_ms));
  EXPECT_EQ(ts, 7_ms);
}

TEST(Algorithm1Test, BetaStepNearThreshold) {
  // 1.2ms - alpha would undershoot minThreshold (0.3ms); beta applies.
  AtcConfig c = cfg();
  const SimTime ts = compute_time_slice(c, S(1_ms, 1'400_us),
                                        S(2_ms, 1'300_us), S(3_ms, 1'200_us));
  EXPECT_EQ(ts, 1'100_us);
}

TEST(Algorithm1Test, NeverBelowMinThreshold) {
  AtcConfig c = cfg();
  const SimTime ts = compute_time_slice(c, S(1_ms, 350_us), S(2_ms, 320_us),
                                        S(3_ms, 310_us));
  EXPECT_GE(ts, c.min_threshold);
}

TEST(Algorithm1Test, HoldsAtMinThreshold) {
  AtcConfig c = cfg();
  const SimTime ts = compute_time_slice(c, S(1_ms, 300_us), S(2_ms, 300_us),
                                        S(3_ms, 300_us));
  EXPECT_EQ(ts, c.min_threshold);
}

TEST(Algorithm1Test, ZeroLatencyThreePeriodsGrowsTowardDefault) {
  const SimTime ts =
      compute_time_slice(cfg(), S(0, 10_ms), S(0, 10_ms), S(0, 10_ms));
  EXPECT_EQ(ts, 11_ms);
}

TEST(Algorithm1Test, ZeroLatencyBetaStepNearDefault) {
  // 29.5ms + alpha (1ms) would overshoot DEFAULT; the fine beta step
  // (100us) still fits.  Regression: a mis-ordered guard used to snap any
  // slice above DEFAULT - alpha straight to DEFAULT, making the beta step
  // unreachable.
  const SimTime ts = compute_time_slice(cfg(), S(0, 29'500_us),
                                        S(0, 29'500_us), S(0, 29'500_us));
  EXPECT_EQ(ts, 29'600_us);
}

// All three relax outcomes of Algorithm 1 lines 12-20, table-driven:
// alpha step when it fits under DEFAULT, else beta step, else snap to
// DEFAULT.
TEST(Algorithm1Test, RelaxStepTable) {
  struct Case {
    const char* name;
    SimTime slice;     // p1..p3 time slice (zero latency throughout)
    SimTime expected;
  };
  const Case cases[] = {
      {"alpha step, far below default", 10_ms, 11_ms},
      {"alpha step, exactly fits", 29_ms, 30_ms},
      {"beta step, alpha overshoots", 29'100_us, 29'200_us},
      {"beta step, exactly fits", 29'900_us, 30_ms},
      {"snap, even beta overshoots", 29'950_us, 30_ms},
      {"already at default", 30_ms, 30_ms},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SimTime ts =
        compute_time_slice(cfg(), S(0, c.slice), S(0, c.slice), S(0, c.slice));
    EXPECT_EQ(ts, c.expected);
  }
}

TEST(Algorithm1Test, ZeroLatencyNeverExceedsDefault) {
  const SimTime ts =
      compute_time_slice(cfg(), S(0, 30_ms), S(0, 30_ms), S(0, 30_ms));
  EXPECT_EQ(ts, 30_ms);
}

TEST(Algorithm1Test, ZeroLatencyBranchWinsOverTrendBranch) {
  // All-zero history also satisfies "not rising"; the growth branch governs.
  const SimTime ts =
      compute_time_slice(cfg(), S(0, 5_ms), S(0, 5_ms), S(0, 5_ms));
  EXPECT_EQ(ts, 6_ms);
}

TEST(Algorithm1Test, ConvergesFromDefaultUnderSustainedRisingLatency) {
  AtcConfig c = cfg();
  PeriodHistory h;
  SimTime slice = c.default_slice;
  SimTime lat = 10_ms;
  int periods = 0;
  while (slice > c.min_threshold && periods < 500) {
    lat += 10_us;  // monotonically rising latency
    h.push(S(lat, slice));
    if (h.full()) slice = compute_time_slice(c, h);
    ++periods;
  }
  EXPECT_EQ(slice, c.min_threshold);
  // 30ms -> 0.3ms at ~alpha per period: ~30 periods + history warmup.
  EXPECT_LE(periods, 45);
}

// Property sweep: for arbitrary histories the result is always within
// [minThreshold, default], and changes by at most alpha per period.
struct HistoryCase {
  std::uint64_t seed;
};

class Algorithm1Property : public ::testing::TestWithParam<HistoryCase> {};

TEST_P(Algorithm1Property, BoundedAndLipschitz) {
  AtcConfig c = cfg();
  sim::Rng rng(GetParam().seed);
  PeriodHistory h;
  SimTime slice = c.default_slice;
  for (int i = 0; i < 200; ++i) {
    const SimTime lat =
        rng.next_double() < 0.2
            ? 0
            : static_cast<SimTime>(rng.uniform(0.0, 20e6));  // 0..20ms
    h.push(S(lat, slice));
    if (!h.full()) continue;
    const SimTime next = compute_time_slice(c, h);
    EXPECT_GE(next, c.min_threshold);
    EXPECT_LE(next, c.default_slice);
    EXPECT_LE(std::abs(next - slice), c.alpha);
    slice = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Algorithm1Property,
                         ::testing::Values(HistoryCase{1}, HistoryCase{2},
                                           HistoryCase{3}, HistoryCase{7},
                                           HistoryCase{11}, HistoryCase{23},
                                           HistoryCase{42}, HistoryCase{99}));

TEST(PeriodHistoryTest, RingSemantics) {
  PeriodHistory h;
  EXPECT_FALSE(h.full());
  h.push(S(1, 10));
  h.push(S(2, 20));
  EXPECT_FALSE(h.full());
  h.push(S(3, 30));
  EXPECT_TRUE(h.full());
  EXPECT_EQ(h.back(1).spin_latency, 3);
  EXPECT_EQ(h.back(3).spin_latency, 1);
  h.push(S(4, 40));
  EXPECT_EQ(h.back(1).spin_latency, 4);
  EXPECT_EQ(h.back(3).spin_latency, 2);
}

TEST(ThresholdTest, MatchesHandComputedDistances) {
  // Two apps, two slices.  O = per-app minima = {1.0, 0.8}.
  std::vector<SimTime> slices = {300_us, 100_us};
  std::vector<std::vector<double>> perf = {{1.0, 1.0}, {1.1, 0.8}};
  ThresholdResult r = optimize_threshold(slices, perf);
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_NEAR(r.candidates[0].distance, 0.2, 1e-12);   // sqrt(0+0.04)
  EXPECT_NEAR(r.candidates[1].distance, 0.1, 1e-12);   // sqrt(0.01+0)
  EXPECT_EQ(r.best_slice, 100_us);
}

TEST(ThresholdTest, PaperLikeInputSelectsPointThreeMs) {
  // Shapes qualitatively like Fig. 8: fastest around 0.3ms.
  std::vector<SimTime> slices = {500_us, 400_us, 300_us, 200_us, 100_us,
                                 30_us};
  std::vector<std::vector<double>> perf = {
      {1.05, 1.04, 1.06}, {1.03, 1.02, 1.04}, {1.00, 1.00, 1.01},
      {1.01, 1.03, 1.00}, {1.08, 1.09, 1.06}, {1.30, 1.40, 1.25},
  };
  ThresholdResult r = optimize_threshold(slices, perf);
  EXPECT_EQ(r.best_slice, 300_us);
}

TEST(ThresholdTest, EmptyInputIsSafe) {
  ThresholdResult r = optimize_threshold({}, {});
  EXPECT_TRUE(r.candidates.empty());
  EXPECT_EQ(r.best_slice, 0);
}

// ----------------------------------------------------------- controller

struct CtrlRig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unique_ptr<sync::PeriodMonitor> monitor;

  CtrlRig() {
    virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = 2;
    pc.seed = 3;
    platform = std::make_unique<virt::Platform>(simulation, pc);
    monitor = std::make_unique<sync::PeriodMonitor>(*platform);
  }

  virt::Vm& vm(virt::VmType type) {
    return platform->create_vm(
        virt::NodeId{0}, type,
        std::string("v").append(std::to_string(platform->vm_count())), 1);
  }
};

TEST(ControllerTest, ParallelVmsGetUniformMinimumSlice) {
  CtrlRig rig;
  virt::Vm& p1 = rig.vm(virt::VmType::kParallel);
  virt::Vm& p2 = rig.vm(virt::VmType::kParallel);
  AtcController ctrl(*rig.platform->nodes()[0], *rig.monitor, cfg());
  // Fake three periods: p1 rising latency (will shrink), p2 zero latency.
  rig.monitor->start();
  p1.set_time_slice(30_ms);
  p2.set_time_slice(30_ms);
  // Drive latency by writing period accumulators before each sampling.
  for (int period = 0; period < 5; ++period) {
    p1.period().spin_wall = (period + 1) * 1_ms;
    p1.period().spin_episodes = 1;
    rig.simulation.run_until((period + 1) * 30_ms);
    ctrl.on_period();
  }
  // p1's candidate shrank; p2's stayed at default; both get the minimum.
  EXPECT_LT(p1.time_slice(), 30_ms);
  EXPECT_EQ(p1.time_slice(), p2.time_slice());
}

TEST(ControllerTest, NonParallelVmKeepsDefault) {
  CtrlRig rig;
  virt::Vm& par = rig.vm(virt::VmType::kParallel);
  virt::Vm& web = rig.vm(virt::VmType::kNonParallel);
  AtcController ctrl(*rig.platform->nodes()[0], *rig.monitor, cfg());
  rig.monitor->start();
  for (int period = 0; period < 6; ++period) {
    par.period().spin_wall = (period + 1) * 1_ms;
    par.period().spin_episodes = 1;
    rig.simulation.run_until((period + 1) * 30_ms);
    ctrl.on_period();
  }
  EXPECT_LT(par.time_slice(), 30_ms);
  EXPECT_EQ(web.time_slice(), 30_ms);
}

TEST(ControllerTest, AdminSliceOverridesDefaultForNonParallel) {
  CtrlRig rig;
  rig.vm(virt::VmType::kParallel);
  virt::Vm& web = rig.vm(virt::VmType::kNonParallel);
  web.set_admin_slice(6_ms);
  AtcController ctrl(*rig.platform->nodes()[0], *rig.monitor, cfg());
  rig.monitor->start();
  rig.simulation.run_until(30_ms);
  ctrl.on_period();
  EXPECT_EQ(web.time_slice(), 6_ms);
}

TEST(ControllerTest, NoParallelVmsMeansDefaultEverywhere) {
  CtrlRig rig;
  virt::Vm& a = rig.vm(virt::VmType::kNonParallel);
  virt::Vm& b = rig.vm(virt::VmType::kNonParallel);
  a.set_time_slice(1_ms);  // leftover from a previous policy
  AtcController ctrl(*rig.platform->nodes()[0], *rig.monitor, cfg());
  rig.monitor->start();
  rig.simulation.run_until(30_ms);
  ctrl.on_period();
  EXPECT_EQ(a.time_slice(), 30_ms);
  EXPECT_EQ(b.time_slice(), 30_ms);
}

TEST(ControllerTest, Dom0IsLeftAlone) {
  CtrlRig rig;
  rig.vm(virt::VmType::kParallel);
  virt::Vm* dom0 = rig.platform->nodes()[0]->dom0();
  dom0->set_time_slice(30_ms);
  AtcController ctrl(*rig.platform->nodes()[0], *rig.monitor, cfg());
  rig.monitor->start();
  rig.simulation.run_until(30_ms);
  ctrl.on_period();
  EXPECT_EQ(dom0->time_slice(), 30_ms);
}

}  // namespace
}  // namespace atcsim::atc
