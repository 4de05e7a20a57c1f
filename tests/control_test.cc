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
    ASSERT_GE(mover.global_id(), 0);
    s.start();
    s.schedule_migration(mover, 300_ms, /*dest_node=*/1);
    s.run_for(700_ms);

    EXPECT_EQ(s.migrator().migrations_started(), 1u);
    EXPECT_TRUE(s.platform().hosts(mover));
    EXPECT_EQ(&mover.node(), s.platform().nodes()[1]);

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
  s.start();
  s.run_for(50_ms);

  EXPECT_FALSE(s.migrator().can_migrate(*s.platform().nodes()[0]->dom0()));
  ASSERT_TRUE(s.migrator().can_migrate(vm));

  const sim::SimTime t_r = s.migrator().migrate(vm, /*dest_node_global=*/1);
  EXPECT_GT(t_r, s.simulation().now());
  // In transit now, so resident on no platform: a second move must be
  // refused until t_r passes.
  EXPECT_FALSE(s.platform().hosts(vm));
  EXPECT_FALSE(s.migrator().can_migrate(vm));

  s.run_for(t_r - s.simulation().now() + 50_ms);
  EXPECT_TRUE(s.migrator().can_migrate(vm));
  EXPECT_EQ(s.platform().global_node_id(vm.node()), 1);
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
  EXPECT_EQ(&vm.node(), s.platform().nodes()[1]);
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

TEST(MigrationTest, TeardownWithForeignAndInFlightVms) {
  // The platform that creates a VM keeps its records in its shard's arena
  // and destroys it, wherever the VM is hosted by then.  Shards are torn
  // down in index order, so shard 0 frees `away` while shard 3 still hosts
  // it, and shard 3 frees `flying` after shard 0 dropped the adopt call
  // that carried it.  The sanitizer job reports any read of freed memory.
  auto sp = ScenarioBuilder{}
                .nodes(8)
                .approach(Approach::kATC)
                .seed(9)
                .shards(4)
                .build();
  Scenario& s = *sp;
  virt::Vm& away = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "away");
  virt::Vm& flying =
      s.add_loop_vm(7, workload::cpu_descriptor("gcc"), "flying");
  s.start();
  // Nodes 0 and 1 belong to shard 0, nodes 6 and 7 to shard 3; a copy
  // window takes ~300 ms.
  s.schedule_migration(away, 50_ms, /*dest_node=*/6);
  s.schedule_migration(flying, 450_ms, /*dest_node=*/1);
  s.run_for(500_ms);

  for (int k = 0; k < s.shard_count(); ++k) {
    EXPECT_EQ(s.platform(k).hosts(away), k == 3) << "shard " << k;
    EXPECT_FALSE(s.platform(k).hosts(flying)) << "shard " << k;
  }
  EXPECT_EQ(s.platform(3).global_node_id(away.node()), 6);
  EXPECT_EQ(s.migrator(0).migrations_started(), 1u);
  EXPECT_EQ(s.migrator(3).migrations_started(), 1u);
  sp.reset();
}

TEST(MigrationTest, MoveIsOneCallOnTheDestinationShard) {
  // No other shard hears of a move: the destination shard adopts the VM in
  // one call at t_r, a local event when the move stays inside the source
  // shard and one fabric record otherwise.  The loop guest sends nothing,
  // so every fabric post here is a migration call.
  auto sp = ScenarioBuilder{}
                .nodes(8)
                .approach(Approach::kCR)
                .seed(5)
                .shards(4)
                .build();
  Scenario& s = *sp;
  virt::Vm& vm = s.add_loop_vm(0, workload::cpu_descriptor("gcc"), "gcc");
  s.start();
  ASSERT_NE(s.fabric(), nullptr);

  // Nodes 0 and 1 both belong to shard 0.
  s.schedule_migration(vm, 50_ms, /*dest_node=*/1);
  s.run_for(500_ms);
  EXPECT_EQ(s.migrator(0).migrations_started(), 1u);
  EXPECT_EQ(s.platform(0).global_node_id(vm.node()), 1);
  EXPECT_EQ(s.fabric()->posted(), 0u);

  // Node 7 belongs to shard 3.
  s.schedule_migration(vm, 550_ms, /*dest_node=*/7);
  s.run_for(500_ms);
  EXPECT_EQ(s.migrator(0).migrations_started(), 2u);
  EXPECT_EQ(s.fabric()->posted(), 1u);
  for (int k = 0; k < s.shard_count(); ++k) {
    EXPECT_EQ(s.platform(k).hosts(vm), k == 3) << "shard " << k;
  }
  EXPECT_EQ(s.platform(3).global_node_id(vm.node()), 7);
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
  std::vector<virt::Vm*> guests;
  for (int i = 0; i < 4; ++i) {
    guests.push_back(&s.add_loop_vm(0, workload::cpu_descriptor("stream"),
                                    "stream" + std::to_string(i)));
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
  for (const virt::Vm* vm : guests) {
    on_cold += s.platform().global_node_id(vm->node()) == 1;
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
