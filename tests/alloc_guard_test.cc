// Guards the event core's zero-allocation contract.
//
// A global operator-new hook counts heap allocations and the bytes they
// request; after a warm-up pass
// (slab slots, heap array and free list reach steady-state size), the
// schedule/pop loop, the cancel loop and the timer arm/fire loop must
// perform exactly zero allocations.  The hook defined here serves the whole
// alloc_guard_test binary, which also holds net_alloc_guard_test.cc and
// pdes_alloc_guard_test.cc (see alloc_guard.h).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "alloc_guard.h"
#include "net/network.h"
#include "sched/credit.h"
#include "simcore/event_queue.h"
#include "simcore/simulation.h"
#include "virt/engine.h"
#include "virt/platform.h"
#include "virt/sync_event.h"
#include "workload/bsp_app.h"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::int64_t> g_live{0};
}  // namespace

// Kept out of line: a call site that inlined one half of the pair would
// pair malloc with operator delete, or operator new with free, and GCC
// warns -Wmismatched-new-delete on it.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) {
    g_live.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p != nullptr) g_live.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace atcsim {
std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::uint64_t alloc_bytes() {
  return g_alloc_bytes.load(std::memory_order_relaxed);
}
std::int64_t live_allocs() { return g_live.load(std::memory_order_relaxed); }
}  // namespace atcsim

namespace atcsim::sim {
namespace {

TEST(AllocGuardTest, SchedulePopSteadyStateIsAllocationFree) {
  Arena arena;
  EventQueue q(arena);
  std::uint64_t sink = 0;
  auto churn = [&] {
    SimTime t = 0;
    for (int batch = 0; batch < 200; ++batch) {
      for (int i = 0; i < 64; ++i) {
        q.schedule(t + (i * 7919) % 1000, [&sink] { ++sink; });
      }
      while (!q.empty()) q.run_next();
      t += 1000;
    }
  };
  churn();  // warm-up: grows slab + heap array to steady-state capacity
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "schedule/pop hot loop allocated after warm-up";
  EXPECT_GT(sink, 0u);
}

TEST(AllocGuardTest, CancelSteadyStateIsAllocationFree) {
  Arena arena;
  EventQueue q(arena);
  std::vector<EventId> ids;
  ids.reserve(64);
  SimTime t = 0;
  auto churn = [&] {
    for (int batch = 0; batch < 200; ++batch) {
      ids.clear();
      for (int i = 0; i < 64; ++i) ids.push_back(q.schedule(t + i, [] {}));
      for (auto id : ids) EXPECT_TRUE(q.cancel(id));
      (void)q.next_time();  // prune
      t += 64;
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "cancel hot loop allocated after warm-up";
}

TEST(AllocGuardTest, TimerRearmIsAllocationFree) {
  Arena arena;
  EventQueue q(arena);
  std::uint64_t fired = 0;
  const TimerId timer = q.make_timer([&fired] { ++fired; });
  SimTime t = 0;
  auto churn = [&] {
    for (int i = 0; i < 10'000; ++i) {
      q.arm(timer, ++t);
      if (i % 3 == 0) {
        q.disarm(timer);  // cancel-heavy flavour: dead key, no firing
        (void)q.next_time();
      } else {
        q.run_next();
      }
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "timer arm/fire/disarm loop allocated after warm-up";
  EXPECT_GT(fired, 0u);
}

TEST(AllocGuardTest, BankTimerArmFireDisarmIsAllocationFree) {
  Arena arena;
  EventQueue q(arena);
  std::uint64_t fired = 0;
  const TimerBank bank =
      q.make_timers(4, [&fired](std::uint32_t i) { fired += i + 1; });
  SimTime t = 0;
  auto churn = [&] {
    for (std::uint32_t i = 0; i < 10'000; ++i) {
      const TimerId timer = bank[i % bank.size];
      q.arm(timer, ++t);
      if (i % 3 == 0) {
        q.disarm(timer);  // cancel-heavy flavour: dead key, no firing
        (void)q.next_time();
      } else {
        q.run_next();
      }
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "bank timer arm/fire/disarm loop allocated after warm-up";
  EXPECT_GT(fired, 0u);
}

TEST(AllocGuardTest, SimulationLoopSteadyStateIsAllocationFree) {
  // Full Simulation::run_until loop with self-rescheduling timers — the
  // engine-shaped hot path end to end.
  Simulation s;
  struct Ctx {
    Simulation* s;
    std::uint64_t fired = 0;
    SimTime horizon = 0;
  } ctx{&s, 0, 0};
  std::vector<TimerId> timers;
  for (int i = 0; i < 16; ++i) {
    timers.push_back(s.make_timer([&ctx] { ++ctx.fired; }));
  }
  auto churn = [&] {
    ctx.horizon = s.now() + 200'000;
    SimTime t = s.now();
    while (s.now() < ctx.horizon) {
      for (auto timer : timers) s.arm_at(timer, t += 7);
      s.run_until(t);
    }
  };
  churn();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(allocs() - before, 0u)
      << "Simulation run loop allocated after warm-up";
  EXPECT_GT(ctx.fired, 0u);
}

// dom0's netback service loop: enqueue -> wake (BOOST) -> compute -> apply
// effect -> idle-block, repeated.  After warm-up (job ring at capacity,
// idle event's waiter buffers sized) the whole cycle — including the idle
// transition, which used to heap-allocate a fresh SyncEvent every time —
// must be allocation-free.
TEST(AllocGuardTest, Dom0IdleWakeSteadyStateIsAllocationFree) {
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  atcsim::virt::Platform platform(s, pc);
  atcsim::net::VirtualNetwork net(platform);
  net.attach();
  platform.make_scheduler<atcsim::sched::CreditScheduler>(atcsim::virt::NodeId{0});
  platform.engine().start();

  std::uint64_t done = 0;
  auto churn = [&](int jobs) {
    for (int i = 0; i < jobs; ++i) {
      // One job, then let dom0 drain it and go idle again before the next
      // wake: every iteration crosses a full idle/wake transition.
      net.backend(0).enqueue({/*cpu_cost=*/10'000, [&done] { ++done; }});
      s.run_until(s.now() + 1'000'000);
    }
  };
  churn(64);
  const std::uint64_t before = allocs();
  churn(256);
  EXPECT_EQ(allocs() - before, 0u)
      << "dom0 idle/wake loop allocated after warm-up";
  EXPECT_EQ(done, 64u + 256u);
}

// A guest that computes briefly, then re-arms its wait event and blocks on
// it (dom0's idle-loop shape).  `use` is the event for the next wait; the
// test may swap it between cycles.
class WaitLoop : public atcsim::virt::Workload {
 public:
  explicit WaitLoop(atcsim::virt::SyncEvent& ev) : use(&ev) {}
  atcsim::virt::Action next(atcsim::virt::Vcpu& /*self*/) override {
    compute_next_ = !compute_next_;
    if (compute_next_) return atcsim::virt::Action::compute(1'000);
    use->reset();
    waiting = use;
    return atcsim::virt::Action::block_wait(*use);
  }
  double cache_sensitivity() const override { return 0.0; }

  atcsim::virt::SyncEvent* use;
  atcsim::virt::SyncEvent* waiting = nullptr;  ///< event of the current wait

 private:
  bool compute_next_ = false;
};

// The waiter list is threaded through the VCPUs, so an event needs no
// buffer of its own: the first cycles on a freshly built event (nothing
// reserved) allocate exactly as little as the warmed steady state.
TEST(AllocGuardTest, FreshSyncEventCyclesAreAllocationFree) {
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  atcsim::virt::Platform platform(s, pc);
  atcsim::virt::Vm& vm = platform.create_vm(
      atcsim::virt::NodeId{0}, atcsim::virt::VmType::kParallel, 1);
  atcsim::virt::Engine& engine = platform.engine();
  atcsim::virt::SyncEvent warm(vm);
  WaitLoop loop(warm);
  vm.vcpus()[0].set_workload(&loop);
  platform.make_scheduler<atcsim::sched::CreditScheduler>(atcsim::virt::NodeId{0});
  const TimerId kick = s.make_timer([&loop] { loop.waiting->signal(); });
  engine.start();

  auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      s.run_until(s.now() + 100'000);  // computes, then blocks
      ASSERT_EQ(vm.vcpus()[0].state(), atcsim::virt::VcpuState::kBlocked);
      s.arm_at(kick, s.now() + 1);
    }
  };
  cycles(64);
  atcsim::virt::SyncEvent fresh(vm);
  loop.use = &fresh;  // the next wait (and every later one) is on `fresh`
  const std::uint64_t before = allocs();
  cycles(4);
  EXPECT_EQ(allocs() - before, 0u)
      << "wait/signal/reset on a fresh SyncEvent allocated";
  EXPECT_EQ(loop.waiting, &fresh);
}

// BspApp keeps every barrier event and arrival counter in two flat arrays
// and every rank in a third, so its construction and attach() cost in
// allocations does not grow with the VM count.
TEST(AllocGuardTest, BspAppBarrierStorageIsFlat) {
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 2;
  atcsim::virt::Platform platform(s, pc);
  std::vector<atcsim::virt::Vm*> all;
  for (int i = 0; i < 64; ++i) {
    all.push_back(&platform.create_vm(atcsim::virt::NodeId{0},
                                      atcsim::virt::VmType::kParallel, 2));
  }
  atcsim::workload::BspConfig cfg;
  cfg.sync_rounds = 4;
  const auto desc = atcsim::workload::Descriptor::from_bsp(cfg);
  auto build_allocs = [&](std::size_t vm_count) {
    std::vector<atcsim::virt::Vm*> vms(all.begin(), all.begin() + vm_count);
    const std::uint64_t before = allocs();
    atcsim::workload::BspApp app(std::move(vms), desc, Rng(1), nullptr);
    app.attach();
    return allocs() - before;
  };
  EXPECT_EQ(build_allocs(4), build_allocs(64));
}

// A guest program that only computes, in short segments.
class ComputeLoop : public atcsim::virt::Workload {
 public:
  atcsim::virt::Action next(atcsim::virt::Vcpu& /*self*/) override {
    return atcsim::virt::Action::compute(50'000);
  }
};

// Every node holds its PCPUs in one array and every VM its VCPUs in one
// array, and the engine's timers are per PCPU: building a platform costs
// the same allocations for 1 or 8 PCPUs per node, creating a VM the same
// for 1 or 8 VCPUs, and Engine::start() the same for either VM shape.
TEST(AllocGuardTest, VcpuAndPcpuStorageIsFlat) {
  using atcsim::virt::NodeId;
  using atcsim::virt::Platform;
  using atcsim::virt::VmType;
  auto platform_allocs = [](int pcpus) {
    Simulation s;
    atcsim::virt::PlatformConfig pc;
    pc.nodes = 2;
    pc.pcpus_per_node = pcpus;
    const std::uint64_t before = allocs();
    Platform platform(s, pc);
    return allocs() - before;
  };
  EXPECT_EQ(platform_allocs(1), platform_allocs(8));

  struct Counts {
    std::uint64_t create_vm = 0;
    std::uint64_t start = 0;
  };
  auto vm_allocs = [](int vcpus) {
    Simulation s;
    atcsim::virt::PlatformConfig pc;
    pc.nodes = 1;
    pc.pcpus_per_node = 4;
    Platform platform(s, pc);
    platform.make_scheduler<atcsim::sched::CreditScheduler>(NodeId{0});
    std::array<ComputeLoop, 32> programs;
    Counts c;
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t before = allocs();
      atcsim::virt::Vm& vm =
          platform.create_vm(NodeId{0}, VmType::kParallel, vcpus);
      c.create_vm = allocs() - before;
      for (auto& v : vm.vcpus()) {
        v.set_workload(&programs[static_cast<std::size_t>(
            4 * v.index_in_vm() + i)]);
      }
    }
    const std::uint64_t before = allocs();
    platform.engine().start();
    c.start = allocs() - before;
    return c;
  };
  const Counts one = vm_allocs(1);
  const Counts eight = vm_allocs(8);
  EXPECT_EQ(one.create_vm, eight.create_vm);
  EXPECT_EQ(one.start, eight.start);
}

// The engine's per-PCPU timers are one bank with no slab slots, so a
// started platform holds the same slots for 1 or 8 PCPUs per node (the
// credit scheduler's two timers per node and the one-shots of the first
// dispatches) and four bank timers per PCPU.
TEST(AllocGuardTest, EngineStartMakesNoSlotPerPcpu) {
  using atcsim::virt::NodeId;
  struct Counts {
    std::size_t slots = 0;
    std::size_t bank_timers = 0;
  };
  auto started = [](int pcpus) {
    Simulation s;
    atcsim::virt::PlatformConfig pc;
    pc.nodes = 2;
    pc.pcpus_per_node = pcpus;
    atcsim::virt::Platform platform(s, pc);
    for (int n = 0; n < pc.nodes; ++n) {
      platform.make_scheduler<atcsim::sched::CreditScheduler>(NodeId{n});
    }
    platform.engine().start();
    return Counts{s.queue().slot_count(), s.queue().bank_timer_count()};
  };
  const Counts one = started(1);
  const Counts eight = started(8);
  EXPECT_EQ(one.slots, eight.slots);
  EXPECT_EQ(one.bank_timers, 4u * 2u * 1u);
  EXPECT_EQ(eight.bank_timers, 4u * 2u * 8u);
}

// Credit scheduling that counts the guest VCPUs' dispatches by their index
// in the VM, in the dispatch hook (which runs in trace-off builds too).
class GuestDispatchCounter : public atcsim::sched::CreditScheduler {
 public:
  explicit GuestDispatchCounter(std::array<std::uint64_t, 8>& counts)
      : counts_(&counts) {}

  void on_dispatched(atcsim::virt::Vcpu& v, atcsim::virt::Pcpu& p) override {
    CreditScheduler::on_dispatched(v, p);
    if (!v.vm().is_dom0()) {
      ++(*counts_)[static_cast<std::size_t>(v.index_in_vm())];
    }
  }

 private:
  std::array<std::uint64_t, 8>* counts_;
};

// Compute timers live on PCPUs, so a migrating VM neither orphans timer
// slots on its source nor makes new ones on its destination: once warm,
// round trips between two nodes leave the event-queue slab as it was.
TEST(AllocGuardTest, MigrationRoundTripsMakeNoTimerSlots) {
  using atcsim::virt::NodeId;
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 2;
  pc.pcpus_per_node = 4;
  atcsim::virt::Platform platform(s, pc);
  std::array<std::uint64_t, 8> dispatches{};
  for (int n = 0; n < 2; ++n) {
    platform.make_scheduler<GuestDispatchCounter>(NodeId{n}, dispatches);
  }
  atcsim::virt::Vm* vm = &platform.create_vm(
      NodeId{0}, atcsim::virt::VmType::kParallel, 8);
  std::array<ComputeLoop, 8> programs;
  for (auto& v : vm->vcpus()) {
    v.set_workload(&programs[static_cast<std::size_t>(v.index_in_vm())]);
  }
  atcsim::virt::Engine& engine = platform.engine();
  engine.start();

  auto round_trips = [&](int n) {
    for (int i = 0; i < n; ++i) {
      for (const int dest : {1, 0}) {
        s.run_until(s.now() + 1'000'000);
        auto bundle = engine.pause_and_expel(*vm, dest);
        vm = &engine.adopt_and_resume(*bundle, NodeId{dest});
        ASSERT_EQ(vm->node().id(), NodeId{dest});
      }
    }
  };
  round_trips(32);
  const std::size_t warm = s.queue().slot_count();
  round_trips(64);
  EXPECT_EQ(s.queue().slot_count(), warm)
      << "migration round trips made new event-queue slots";
  s.run_until(s.now() + 1'000'000);
  for (const std::uint64_t n : dispatches) EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace atcsim::sim
