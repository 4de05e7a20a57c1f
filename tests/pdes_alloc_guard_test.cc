// Steady-state zero-allocation guard for the cross-shard exchange path
// (DESIGN.md §10) — the PDES sibling of net_alloc_guard_test.cc:
//
//   guest send -> source NIC -> ShardFabric mailbox post -> round barrier
//   -> round delivery at the packet due time -> destination NIC arrival
//   -> guest delivery,
//
// pumped as a ping-pong between two shards so every packet crosses the
// fabric and both mailbox directions reach their high-water capacity.
// After a warm-up window of rounds, the whole cycle — including the
// ShardGroup's min-scan/advance phases — must touch the allocator exactly
// zero times, as counted by the operator-new hook in alloc_guard_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "net/fabric.h"
#include "net/network.h"
#include "sched/credit.h"
#include "simcore/shard.h"
#include "simcore/simulation.h"
#include "virt/platform.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

/// Always-runnable guest, as in net_alloc_guard_test: deposits arrive as
/// immediate IRQs, so the test exercises the exchange path, not scheduling.
class BusyWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    return virt::Action::compute(1_ms);
  }
  double cache_sensitivity() const override { return 0.0; }
};

/// Minimal shard executor over one Simulation + fabric port — the same
/// contract cluster::Scenario implements, without the scenario machinery.
class Exec final : public sim::ShardExecutor {
 public:
  Exec(int id, sim::Simulation& sim, net::ShardFabric& fabric)
      : id_(id), sim_(sim), fabric_(fabric) {}
  sim::SimTime next_event_time() const override {
    return sim_.next_event_time();
  }
  sim::SimTime pending_inbound_time() const override {
    return fabric_.pending_due(id_);
  }
  void deliver_inbound(sim::SimTime watermark) override {
    fabric_.deliver_to(id_, watermark);
  }
  std::uint64_t advance_to(sim::SimTime horizon) override {
    // Per the ShardExecutor contract, sealed inbound packets due inside the
    // horizon are consumed at their canonical points: local events first up
    // to each batch's due time, then the batch.
    std::uint64_t n = 0;
    for (;;) {
      const sim::SimTime due = fabric_.ready_due(id_);
      if (due > horizon) break;
      n += sim_.run_until(due);
      fabric_.deliver_to(id_, due);
    }
    return n + sim_.run_until(horizon);
  }

 private:
  int id_;
  sim::Simulation& sim_;
  net::ShardFabric& fabric_;
};

// Two single-node shards; each hosts one busy guest.  Streams ping-pong:
// a delivery on shard d immediately sends the ball back from d's side, so
// traffic flows through both (0 -> 1) and (1 -> 0) mailboxes every round.
// As in cluster::Scenario, a packet routes by its destination VM's own
// network, and the mailboxes start at Scenario's cold-start size.
struct ShardedPktRig {
  static constexpr std::size_t kMailboxSlots = 256;
  virt::ModelParams params;
  net::ShardFabric fabric;

  struct Stack {
    sim::Simulation simulation;
    std::unique_ptr<virt::Platform> platform;
    std::unique_ptr<net::VirtualNetwork> network;
  };
  std::vector<std::unique_ptr<Stack>> stacks;
  std::vector<std::unique_ptr<Exec>> execs;
  std::vector<std::unique_ptr<virt::Workload>> workloads;
  std::vector<virt::Vm*> guests;  ///< guest i lives on shard i
  std::unique_ptr<sim::ShardGroup> group;
  std::uint64_t delivered = 0;

  explicit ShardedPktRig(std::size_t threads)
      : fabric(2, kMailboxSlots) {
    for (int s = 0; s < 2; ++s) {
      auto stack = std::make_unique<Stack>();
      virt::PlatformConfig pc;
      pc.nodes = 1;
      pc.pcpus_per_node = 2;
      pc.seed = 23;
      pc.node_id_offset = s;
      pc.params = params;
      stack->platform =
          std::make_unique<virt::Platform>(stack->simulation, pc);
      stack->network = std::make_unique<net::VirtualNetwork>(*stack->platform);
      stack->network->attach();
      fabric.bind(s, *stack->network);
      virt::Vm& vm = stack->platform->create_vm(
          virt::NodeId{0}, virt::VmType::kNonParallel, 1);
      workloads.push_back(std::make_unique<BusyWorkload>());
      vm.vcpus()[0].set_workload(workloads.back().get());
      guests.push_back(&vm);
      stack->platform->make_scheduler<sched::CreditScheduler>(virt::NodeId{0});
      stack->platform->engine().start();
      execs.push_back(std::make_unique<Exec>(s, stack->simulation, fabric));
      stacks.push_back(std::move(stack));
    }
    sim::ShardGroup::Options opts;
    opts.lookahead = params.wire_latency;
    opts.threads = threads;
    // Staged mailboxes: the group must seal posts into the ready queues
    // before every delivery sweep or they never become visible.
    opts.round_prologue = [this] { fabric.seal_round(); };
    group = std::make_unique<sim::ShardGroup>(
        std::vector<sim::ShardExecutor*>{execs[0].get(), execs[1].get()},
        opts);
    // Two balls in flight per direction keeps both mailboxes busy.
    for (int i = 0; i < 2; ++i) {
      fire(0, 1);
      fire(1, 0);
    }
  }

  void fire(int from, int to) {
    stacks[static_cast<std::size_t>(from)]->network->send(
        *guests[static_cast<std::size_t>(from)],
        *guests[static_cast<std::size_t>(to)], 8 * 1024, [this, from, to] {
          ++delivered;
          fire(to, from);  // runs on shard `to`: send the ball back
        });
  }
};

TEST(PdesAllocGuardTest, CrossShardExchangeSteadyStateIsAllocationFree) {
  ShardedPktRig rig(/*threads=*/1);
  rig.group->run_until(50_ms);  // warm-up: mailboxes/pools at high water
  const std::uint64_t d0 = rig.delivered;
  ASSERT_GT(d0, 0u) << "warm-up delivered no cross-shard packets";
  const std::uint64_t before = allocs();
  rig.group->run_until(250_ms);
  EXPECT_EQ(allocs() - before, 0u)
      << "cross-shard exchange allocated after warm-up";
  EXPECT_GT(rig.delivered - d0, 100u);
  EXPECT_EQ(rig.fabric.posted(), rig.fabric.delivered())
      << "mailboxes not drained between rounds";
}

TEST(PdesAllocGuardTest, RoundProtocolItselfStaysAllocationFreeAcrossCalls) {
  // Many short run_until() calls (the warmup_and_measure pattern) must not
  // allocate either: per-round scratch is preallocated in the ShardGroup.
  ShardedPktRig rig(/*threads=*/1);
  rig.group->run_until(50_ms);
  const std::uint64_t before = allocs();
  for (int i = 1; i <= 40; ++i) {
    rig.group->run_until(50_ms + i * 2_ms);
  }
  EXPECT_EQ(allocs() - before, 0u)
      << "repeated round batches allocated after warm-up";
  EXPECT_GT(rig.group->stats().rounds, 40u);
}

}  // namespace
}  // namespace atcsim
