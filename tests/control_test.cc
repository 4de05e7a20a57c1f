// Cluster control plane tests (DESIGN.md §12): the live-migration
// primitive end-to-end and the contention-aware rebalancer policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cluster/approach.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "virt/platform.h"
#include "workload/apps.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

// ------------------------------------------------------------- migration

// CS also runs: its period hook must skip the slot the guest vacated.
TEST(MigrationTest, ScriptedMoveRelocatesVmAndPreservesProgress) {
  for (Approach a : {Approach::kCR, Approach::kCS}) {
    SCOPED_TRACE(cluster::approach_name(a));
    auto sp = ScenarioBuilder{}
                  .nodes(2)
                  .pcpus_per_node(4)
                  .vms_per_node(4)
                  .vcpus_per_vm(2)
                  .approach(a)
                  .seed(11)
                  .check_invariants()
                  .build();
    Scenario& s = *sp;
    // A loop guest with a pending think timer at the decision instant: the
    // timer must travel in the bundle and re-arm on the destination engine.
    const workload::Descriptor desc = workload::Descriptor::parse(
        "workload svc\nrate_units 4\nphase compute 400us jitter=0.1\n"
        "phase think 600us\n");
    virt::Vm& mover = s.add_loop_vm(0, desc, "svc");
    const std::int64_t gid = mover.global_id();
    ASSERT_GE(gid, 0);
    s.start();
    s.schedule_migration(mover, 300_ms, /*dest_node=*/1);
    s.run_for(700_ms);

    EXPECT_EQ(s.migrator().migrations_started(), 1u);
    const virt::VmLocation& loc = s.directory().at(gid);
    EXPECT_EQ(loc.node_global, 1);
    EXPECT_LE(loc.moving_until, s.simulation().now());
    EXPECT_EQ(&mover.node(), s.platform().nodes()[1].get());

    // The guest must keep completing loop iterations after the move:
    // credits, mailbox and workload timers all travelled in the bundle —
    // and the checker's migration-residency/migration-credits invariants
    // held.
    s.metrics().reset_all();
    s.run_for(400_ms);
    double units = 0.0;
    for (const auto& [key, rate] : s.metrics().all_rates()) {
      units += rate.units();
    }
    EXPECT_GT(units, 0.0);
    ASSERT_NE(s.invariants(), nullptr);
    EXPECT_TRUE(s.invariants()->violations().empty());
  }
}

TEST(MigrationTest, GuardsRefuseDom0AndInTransitVms) {
  auto sp = ScenarioBuilder{}.nodes(2).approach(Approach::kCR).seed(5).build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  const std::int64_t gid = vm.global_id();
  s.start();
  s.run_for(50_ms);

  EXPECT_FALSE(s.migrator().can_migrate(*s.platform().nodes()[0]->dom0()));
  ASSERT_TRUE(s.migrator().can_migrate(vm));

  const sim::SimTime t_r = s.migrator().migrate(vm, /*dest_node_global=*/1);
  EXPECT_GT(t_r, s.simulation().now());
  // In transit now: a second move must be refused until t_r passes.
  EXPECT_FALSE(s.migrator().can_migrate(vm));

  s.run_for(t_r - s.simulation().now() + 50_ms);
  EXPECT_TRUE(s.migrator().can_migrate(vm));
  EXPECT_EQ(s.directory().at(gid).node_global, 1);
}

TEST(MigrationTest, ScheduledMoveIsNoOpWhenAlreadyInTransitOrArrived) {
  auto sp = ScenarioBuilder{}.nodes(2).approach(Approach::kCR).seed(6).build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  s.start();
  // The copy window of the default 32 MiB working set runs ~300 ms, so the
  // 150 ms order lands mid-transit (refused) and the 800 ms one finds the
  // VM already at its destination (refused).
  s.schedule_migration(vm, 100_ms, /*dest_node=*/1);
  s.schedule_migration(vm, 150_ms, /*dest_node=*/1);
  s.schedule_migration(vm, 800_ms, /*dest_node=*/1);
  s.run_for(1_s);
  EXPECT_EQ(s.migrator().migrations_started(), 1u);
  EXPECT_EQ(&vm.node(), s.platform().nodes()[1].get());
}

TEST(MigrationTest, DestroyingAScenarioMidCopyFreesTheBundle) {
  // A run may end inside a copy window.  The migrating VM is then owned by
  // the destination's migration call: a pending event (one shard) or a
  // fabric call in flight (two shards).  Destroying the scenario must free
  // it; the sanitizer job's leak checker turns a lost bundle into a failure.
  for (int shards : {1, 2}) {
    auto sp = ScenarioBuilder{}
                  .nodes(2)
                  .approach(Approach::kCR)
                  .seed(5)
                  .shards(shards)
                  .build();
    Scenario& s = *sp;
    virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
    s.start();
    s.schedule_migration(vm, 50_ms, /*dest_node=*/1);
    s.run_for(100_ms);  // the ~300 ms copy window is still open
    std::uint64_t started = 0;
    for (int k = 0; k < s.shard_count(); ++k) {
      started += s.migrator(k).migrations_started();
    }
    EXPECT_EQ(started, 1u) << "shards=" << shards;
    // In flight: resident on no shard's platform.
    const std::vector<virt::Vm*> guests = s.guest_vms();
    EXPECT_EQ(std::count(guests.begin(), guests.end(), &vm), 0)
        << "shards=" << shards;
  }
}

// ------------------------------------------------------------ rebalancer

TEST(RebalancerTest, MovesBusiestGuestOffTheHotHost) {
  // Four cache-hungry guests fight over node 0's two PCPUs while node 1
  // sits idle: the pressure gap is maximal, so kPM must migrate at least
  // one guest across, and the gap must narrow.
  auto sp = ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(2)
                .vms_per_node(4)
                .vcpus_per_vm(1)
                .approach(Approach::kPM)
                .seed(21)
                .build();
  Scenario& s = *sp;
  std::vector<std::int64_t> gids;
  for (int i = 0; i < 4; ++i) {
    virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("stream"),
                                 "stream" + std::to_string(i));
    gids.push_back(vm.global_id());
  }
  s.start();
  s.run_for(2_s);

  const cluster::ApproachRuntime& rt = s.approach_runtime();
  ASSERT_NE(rt.rebalancer, nullptr);
  EXPECT_GT(rt.rebalancer->periods_observed(), 10u);
  EXPECT_GE(rt.rebalancer->migrations_ordered(), 1u);
  EXPECT_EQ(s.migrator().migrations_started(),
            rt.rebalancer->migrations_ordered());

  int on_cold = 0;
  for (std::int64_t gid : gids) {
    on_cold += s.directory().at(gid).node_global == 1;
  }
  // Load spread, but hysteresis kept some guests home: the controller
  // stopped once the gap fell under the margin instead of thrashing the
  // whole population back and forth (~66 periods would allow ~16 moves).
  EXPECT_GE(on_cold, 1);
  EXPECT_LE(on_cold, 3);
  EXPECT_LE(rt.rebalancer->migrations_ordered(), 4u);
}

}  // namespace
}  // namespace atcsim
