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
//
// Barrier routing (DESIGN.md §1): at 32 nodes ATC's mg.B superstep is node
// 0's NIC time.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/cell.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;

struct Shape {
  int hosts;
  std::uint64_t seed;
};

// Names each cell in gtest and ctest listings, e.g. "hosts64_seed97".
void PrintTo(const Shape& c, std::ostream* os) {
  *os << "hosts" << c.hosts << "_seed" << c.seed;
}

class ControlPlaneClaims : public ::testing::TestWithParam<Shape> {};

TEST_P(ControlPlaneClaims, AtcShortensSuperstepsPlacementAloneDoesNot) {
  std::vector<exp::Cell> cells;
  for (Approach a :
       {Approach::kCR, Approach::kATC, Approach::kPM, Approach::kATCPM}) {
    exp::Cell c;
    c.builder.nodes(GetParam().hosts).approach(a).seed(GetParam().seed);
    c.layout = [](cluster::Scenario& s) { cluster::build_mixed(s); };
    c.warmup = 1_s;
    c.measure = 2_s;
    cells.push_back(std::move(c));
  }
  // r[0..3]: CR, ATC, PM, ATC+PM.  Supersteps average every "VC*" key.
  const std::vector<exp::CellResult> r = exp::run_cells(cells);
  const double cr_s = r[0].mean_superstep("VC");
  const double atc_s = r[1].mean_superstep("VC");
  const double pm_s = r[2].mean_superstep("VC");
  const double atcpm_s = r[3].mean_superstep("VC");
  ASSERT_GT(cr_s, 0.0);
  ASSERT_GT(atc_s, 0.0);

  EXPECT_LE(atc_s / cr_s, 0.70);
  EXPECT_LE(atcpm_s / cr_s, 0.70);
  EXPECT_GE(pm_s / cr_s, 0.95);
  EXPECT_LE(pm_s / cr_s, 1.10);

  EXPECT_EQ(r[0].migrations, 0u);
  EXPECT_EQ(r[1].migrations, 0u);
  EXPECT_GE(r[2].migrations, 1u);
  EXPECT_GE(r[3].migrations, 1u);

  const double atcpm_vs_atc = atcpm_s / atc_s;
  EXPECT_GE(atcpm_vs_atc, 0.90)
      << "placement now shortens supersteps on top of ATC: update known "
         "deviation 6 in EXPERIMENTS.md and this band";
  EXPECT_LE(atcpm_vs_atc, 1.10) << "placement now slows ATC down";
}

INSTANTIATE_TEST_SUITE_P(MixedCell, ControlPlaneClaims,
                         ::testing::Values(Shape{64, 1}, Shape{64, 2},
                                           Shape{64, 97}, Shape{128, 1},
                                           Shape{128, 2}, Shape{128, 97}));

// Barrier exchange through VM 0 (DESIGN.md §1, decision 11): node 0's NIC
// moves 4 x (N - 1) x size per superstep in each direction, a floor under
// the superstep.  At 32 nodes ATC's mg.B superstep sits on it (0.9998-1.0004
// over seeds 1-5, 42 and 97 in fig10's 2 s + 5 s window; a 1 s + 2 s window
// reads 0.990-0.993).  16 nodes is not asserted: two of those seeds read
// 13-15% above it there.
TEST(NicFloorClaims, AtcMgSuperstepIsNodeZeroNicTimeAt32Nodes) {
  const workload::Descriptor mg =
      workload::npb_descriptor("mg", workload::NpbClass::kB);
  // Four type-A coordinators on node 0, each exchanging with 31 VMs.
  const double floor_s = 4 * 31 * static_cast<double>(mg.barrier_bytes()) /
                         virt::ModelParams{}.nic_bandwidth_bps;
  const std::vector<std::uint64_t> seeds = {42, 1, 2};
  std::vector<exp::Cell> cells;
  for (std::uint64_t seed : seeds) {
    exp::Cell c = exp::type_a(mg);
    c.builder.nodes(32).approach(Approach::kATC).seed(seed);
    c.warmup = 2_s;
    c.measure = 5_s;
    cells.push_back(std::move(c));
  }
  const std::vector<exp::CellResult> r = exp::run_cells(cells);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_NEAR(r[i].mean_superstep(mg.name) / floor_s, 1.0, 0.01)
        << "seed " << seeds[i] << ", floor " << floor_s << " s";
  }
}

}  // namespace
}  // namespace atcsim
