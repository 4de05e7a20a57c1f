// Pinned rebalancer decisions (DESIGN.md §12).
//
// Which guests the contention-aware rebalancer moves, and where to, in the
// mixed cell at 32 hosts with the claims tests' window (1 s warmup, 2 s
// measured).  No other test checks the decisions themselves, only their
// count or their effect on supersteps: a change to the miss windows, the
// pressure score or the tie-breaks shows up here as a diff of the expected
// moves.  A whole-cell run per approach, so it lives in the slow binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

TEST(RebalancerTest, MixedCellDecisionsArePinned) {
  struct Expected {
    Approach approach;
    std::uint64_t migrations;
    std::map<std::int64_t, int> moved;  ///< gid -> final global node
  };
  const Expected cases[] = {
      {Approach::kPM,
       8,
       {{100, 8}, {103, 25}, {112, 4}, {118, 25}, {121, 22}}},
      {Approach::kATCPM, 4, {{100, 5}, {101, 4}, {112, 9}}},
  };
  for (const Expected& e : cases) {
    auto sp = ScenarioBuilder{}.nodes(32).approach(e.approach).seed(1).build();
    Scenario& s = *sp;
    cluster::build_mixed(s);
    // A VM object travels with its guest, so its node is where it lives.
    const auto node_of = [](virt::Vm& vm) {
      return vm.node().platform().global_node_id(vm.node());
    };
    std::map<std::int64_t, int> created;
    const std::vector<virt::Vm*> guests = s.guest_vms();
    for (virt::Vm* vm : guests) created[vm->global_id()] = node_of(*vm);
    s.start();
    s.warmup_and_measure(1_s, 2_s);

    std::map<std::int64_t, int> moved;
    for (virt::Vm* vm : guests) {
      const int now_on = node_of(*vm);
      if (now_on != created[vm->global_id()]) moved[vm->global_id()] = now_on;
    }
    const std::string name = cluster::approach_name(e.approach);
    EXPECT_EQ(s.migrator().migrations_started(), e.migrations) << name;
    EXPECT_EQ(moved, e.moved) << name;
  }
}

}  // namespace
}  // namespace atcsim
