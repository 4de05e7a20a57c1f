// Paper claims as a multi-seed gate (ctest label `claims`).
//
// Control plane (Sec. IV-C mixed cluster; DESIGN.md §12): the mixed cell
// (trace-synthesized virtual clusters sharing every host with web, disk,
// CPU-hog and ping guests) under CR, ATC, PM and ATC+PM at one shard.  The
// claims: ATC shortens the virtual clusters' supersteps against CR; PM alone
// does not, because the BSP ranks stay pinned and placement only relieves
// the cache pressure around them; only PM and ATC+PM migrate.  Known
// deviation 6 (EXPERIMENTS.md) is pinned as an expected band: placement
// adds nothing on top of ATC.
//
// One cell per (hosts, seed).  Seed 97 is the 512-host headline's seed; at
// 128 hosts it already gives the headline's CR superstep and ATC ratio to
// four digits.  The windows matter: the rebalancer decides once per 30 ms
// accounting period and sits out ten after each move, and ATC needs most of
// the 1 s warmup to converge (with a 0.3 s warmup and a 0.6 s window,
// ATC / CR reads 0.999 at 128 hosts and seed 97).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;

struct Cell {
  int hosts;
  std::uint64_t seed;
};

// Names each cell in gtest and ctest listings, e.g. "hosts64_seed97".
void PrintTo(const Cell& c, std::ostream* os) {
  *os << "hosts" << c.hosts << "_seed" << c.seed;
}

struct Outcome {
  double vc_superstep_s = 0;  ///< mean superstep over every "VC*" key
  std::uint64_t migrations = 0;
};

Outcome run_mixed(const Cell& c, Approach a) {
  auto s = cluster::ScenarioBuilder{}
               .nodes(c.hosts)
               .approach(a)
               .seed(c.seed)
               .build();
  cluster::build_mixed(*s);
  s->start();
  s->warmup_and_measure(1_s, 2_s);
  return {s->mean_superstep_with_prefix("VC"),
          s->migrator().migrations_started()};
}

class ControlPlaneClaims : public ::testing::TestWithParam<Cell> {};

TEST_P(ControlPlaneClaims, AtcShortensSuperstepsPlacementAloneDoesNot) {
  const Outcome cr = run_mixed(GetParam(), Approach::kCR);
  const Outcome atc = run_mixed(GetParam(), Approach::kATC);
  const Outcome pm = run_mixed(GetParam(), Approach::kPM);
  const Outcome atcpm = run_mixed(GetParam(), Approach::kATCPM);
  ASSERT_GT(cr.vc_superstep_s, 0.0);
  ASSERT_GT(atc.vc_superstep_s, 0.0);

  const double atc_vs_cr = atc.vc_superstep_s / cr.vc_superstep_s;
  const double pm_vs_cr = pm.vc_superstep_s / cr.vc_superstep_s;
  const double atcpm_vs_cr = atcpm.vc_superstep_s / cr.vc_superstep_s;
  EXPECT_LE(atc_vs_cr, 0.70);
  EXPECT_LE(atcpm_vs_cr, 0.70);
  EXPECT_GE(pm_vs_cr, 0.95);
  EXPECT_LE(pm_vs_cr, 1.10);

  EXPECT_EQ(cr.migrations, 0u);
  EXPECT_EQ(atc.migrations, 0u);
  EXPECT_GE(pm.migrations, 1u);
  EXPECT_GE(atcpm.migrations, 1u);

  const double atcpm_vs_atc = atcpm.vc_superstep_s / atc.vc_superstep_s;
  EXPECT_GE(atcpm_vs_atc, 0.90)
      << "placement now shortens supersteps on top of ATC: update known "
         "deviation 6 in EXPERIMENTS.md and this band";
  EXPECT_LE(atcpm_vs_atc, 1.10) << "placement now slows ATC down";
}

INSTANTIATE_TEST_SUITE_P(MixedCell, ControlPlaneClaims,
                         ::testing::Values(Cell{64, 1}, Cell{64, 2},
                                           Cell{64, 97}, Cell{128, 1},
                                           Cell{128, 2}, Cell{128, 97}));

}  // namespace
}  // namespace atcsim
