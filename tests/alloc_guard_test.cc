// Guards the event core's zero-allocation contract.
//
// A global operator-new hook counts heap allocations; after a warm-up pass
// (slab slots, heap array and free list reach steady-state size), the
// schedule/pop loop, the cancel loop and the timer arm/fire loop must
// perform exactly zero allocations.  Runs as its own binary so the hook
// cannot interfere with the main test suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

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
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace atcsim::sim {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(AllocGuardTest, SchedulePopSteadyStateIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  auto churn = [&] {
    SimTime t = 0;
    for (int batch = 0; batch < 200; ++batch) {
      for (int i = 0; i < 64; ++i) {
        q.schedule(t + (i * 7919) % 1000, [&sink] { ++sink; });
      }
      while (!q.empty()) q.pop().fn();
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
  EventQueue q;
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
  EventQueue q;
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
        q.pop().fn();
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
  pc.dom0_vcpus = 1;
  atcsim::virt::Platform platform(s, pc);
  atcsim::net::VirtualNetwork net(platform);
  net.attach();
  platform.set_scheduler(atcsim::virt::NodeId{0},
                         std::make_unique<atcsim::sched::CreditScheduler>());
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
  std::string name() const override { return "wait_loop"; }

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
      atcsim::virt::NodeId{0}, atcsim::virt::VmType::kParallel, "guest", 1);
  atcsim::virt::Engine& engine = platform.engine();
  atcsim::virt::SyncEvent warm(engine);
  WaitLoop loop(warm);
  vm.vcpus()[0]->set_workload(&loop);
  platform.set_scheduler(atcsim::virt::NodeId{0},
                         std::make_unique<atcsim::sched::CreditScheduler>());
  const TimerId kick = s.make_timer([&loop] { loop.waiting->signal(); });
  engine.start();

  auto cycles = [&](int n) {
    for (int i = 0; i < n; ++i) {
      s.run_until(s.now() + 100'000);  // computes, then blocks
      ASSERT_EQ(vm.vcpus()[0]->state(), atcsim::virt::VcpuState::kBlocked);
      s.arm_at(kick, s.now() + 1);
    }
  };
  cycles(64);
  atcsim::virt::SyncEvent fresh(engine);
  loop.use = &fresh;  // the next wait (and every later one) is on `fresh`
  const std::uint64_t before = allocs();
  cycles(4);
  EXPECT_EQ(allocs() - before, 0u)
      << "wait/signal/reset on a fresh SyncEvent allocated";
  EXPECT_EQ(loop.waiting, &fresh);
}

// BspApp keeps every barrier event and arrival counter in two flat arrays,
// so its construction cost in allocations does not grow with the VM count.
TEST(AllocGuardTest, BspAppBarrierStorageIsFlat) {
  Simulation s;
  atcsim::virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 2;
  atcsim::virt::Platform platform(s, pc);
  std::vector<atcsim::virt::Vm*> all;
  for (int i = 0; i < 64; ++i) {
    all.push_back(&platform.create_vm(atcsim::virt::NodeId{0},
                                      atcsim::virt::VmType::kParallel,
                                      "vm" + std::to_string(i), 2));
  }
  atcsim::workload::BspConfig cfg;
  cfg.sync_rounds = 4;
  auto build_allocs = [&](std::size_t vm_count) {
    std::vector<atcsim::virt::Vm*> vms(all.begin(), all.begin() + vm_count);
    const std::uint64_t before = allocs();
    atcsim::workload::BspApp app(std::move(vms), cfg, Rng(1), nullptr,
                                 nullptr);
    return allocs() - before;
  };
  EXPECT_EQ(build_allocs(4), build_allocs(64));
}

}  // namespace
}  // namespace atcsim::sim
