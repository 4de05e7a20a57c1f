// Cluster control plane tests (DESIGN.md §12): the live-migration
// primitive end-to-end, the contention-aware rebalancer policy, and the
// lifetime regression fixed alongside it — install_approach's monitor
// subscriptions are RAII tokens now, which fails loudly on the pre-fix code.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/approach.h"
#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "sync/period_monitor.h"
#include "virt/platform.h"
#include "workload/apps.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

// ------------------------------------------------------------- migration

TEST(MigrationTest, ScriptedMoveRelocatesVmAndPreservesProgress) {
  auto sp = ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(4)
                .vms_per_node(4)
                .vcpus_per_vm(2)
                .approach(Approach::kCR)
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
  EXPECT_EQ(s.migrator().migrations_adopted(), 1u);
  const virt::VmLocation& loc = s.directory().at(gid);
  EXPECT_EQ(loc.node_global, 1);
  EXPECT_LE(loc.moving_until, s.simulation().now());
  EXPECT_EQ(&mover.node(), s.platform().nodes()[1].get());

  // The guest must keep completing loop iterations after the move: credits,
  // mailbox and workload timers all travelled in the bundle — and the
  // checker's migration-residency/migration-credits invariants held.
  s.metrics().reset_all();
  s.run_for(400_ms);
  double units = 0.0;
  for (const auto& [key, rate] : s.metrics().all_rates()) units += rate.units();
  EXPECT_GT(units, 0.0);
  ASSERT_NE(s.invariants(), nullptr);
  EXPECT_TRUE(s.invariants()->violations().empty());
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
  EXPECT_EQ(s.migrator().migrations_adopted(), 1u);
}

TEST(MigrationTest, DestroyingAScenarioMidCopyFreesTheBundle) {
  // A run may end inside a copy window.  The migrating VM is then owned by
  // the pending adoption (one shard) or by the in-flight kVmTransfer record
  // (two shards), and destroying the scenario must free it; the sanitizer
  // job's leak checker turns a lost bundle into a failure.
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
    std::uint64_t started = 0, adopted = 0;
    for (int k = 0; k < s.shard_count(); ++k) {
      started += s.migrator(k).migrations_started();
      adopted += s.migrator(k).migrations_adopted();
    }
    EXPECT_EQ(started, 1u) << "shards=" << shards;
    EXPECT_EQ(adopted, 0u) << "shards=" << shards;
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

// --------------------------------------------- observer-lifetime regression

TEST(ApproachLifetimeTest, DestroyingARuntimeUnsubscribesItsCallbacks) {
  // Pre-fix, install_approach registered raw subscriber pointers with the
  // monitor; destroying the runtime (a re-install) left them dangling and
  // the next period fired into freed controllers.  The RAII subscriptions
  // must drop the count back to zero.
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 2;
  pc.seed = 5;
  virt::Platform platform(simulation, pc);
  sync::PeriodMonitor monitor(platform);
  EXPECT_EQ(monitor.subscriber_count(), 0u);
  {
    cluster::ApproachRuntime rt =
        cluster::install_approach(platform, monitor, Approach::kCS);
    EXPECT_GT(monitor.subscriber_count(), 0u);
  }
  EXPECT_EQ(monitor.subscriber_count(), 0u);

  // Re-install a different approach and let periods fire: with the old
  // callbacks detached this runs clean; pre-fix it was a use-after-free.
  cluster::ApproachRuntime rt =
      cluster::install_approach(platform, monitor, Approach::kDSS);
  EXPECT_GT(monitor.subscriber_count(), 0u);
  monitor.start();
  platform.engine().start();
  simulation.run_until(200_ms);
  EXPECT_GT(monitor.periods_elapsed(), 0u);
}

// Detach tombstones the entry instead of erasing it, and a period's sweep
// walks the list by index: detaching half the subscribers — one of them
// from another's callback, one from its own — must leave the survivors
// firing exactly once per period, in subscription order.
TEST(PeriodMonitorTest, DetachKeepsSurvivorsInSubscriptionOrder) {
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  virt::Platform platform(simulation, pc);
  sync::PeriodMonitor monitor(platform);
  constexpr int kSubs = 64;
  constexpr int kDetacher = 10;   // detaches kDetacher + 1 mid-sweep
  constexpr int kSelfDetach = 20; // fires once, then detaches itself
  std::vector<int> fired;
  std::vector<sync::PeriodMonitor::Subscription> subs(kSubs);
  for (int i = 0; i < kSubs; ++i) {
    subs[static_cast<std::size_t>(i)] =
        monitor.subscribe([&fired, &subs, i](std::uint64_t) {
          fired.push_back(i);
          if (i == kDetacher) subs[kDetacher + 1].reset();
          if (i == kSelfDetach) subs[kSelfDetach].reset();
        });
  }
  for (int i = 1; i < kSubs; i += 2) {
    if (i != kDetacher + 1) subs[static_cast<std::size_t>(i)].reset();
  }
  EXPECT_EQ(monitor.subscriber_count(), std::size_t{kSubs / 2 + 1});

  std::vector<int> evens;
  for (int i = 0; i < kSubs; i += 2) evens.push_back(i);
  monitor.start();
  const sim::SimTime period = platform.params().accounting_period;
  simulation.run_until(period);
  ASSERT_EQ(monitor.periods_elapsed(), 1u);
  EXPECT_EQ(fired, evens);
  EXPECT_EQ(monitor.subscriber_count(), std::size_t{kSubs / 2 - 1});

  fired.clear();
  simulation.run_until(2 * period);
  ASSERT_EQ(monitor.periods_elapsed(), 2u);
  std::erase(evens, kSelfDetach);
  EXPECT_EQ(fired, evens);
}

}  // namespace
}  // namespace atcsim
