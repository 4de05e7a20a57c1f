// Engine tests: VCPU execution, slices, spin/block waits, mailboxes,
// context-switch and cache-debt accounting.
#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "sched/credit.h"
#include "virt/engine.h"
#include "virt/platform.h"
#include "virt/sync_event.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using virt::Action;
using virt::Vcpu;
using virt::VcpuState;
using virt::VmType;

// Scripted workload: replays a fixed list of actions, then exits.
class ScriptWorkload : public virt::Workload {
 public:
  explicit ScriptWorkload(std::vector<Action> script, double sens = 1.0)
      : script_(std::move(script)), sens_(sens) {}

  Action next(Vcpu& /*self*/) override {
    on_step_.push_back(step_);
    if (step_ >= script_.size()) return Action::exit();
    return script_[step_++];
  }
  double cache_sensitivity() const override { return sens_; }

  std::size_t steps_taken() const { return step_; }
  const std::vector<std::size_t>& trace() const { return on_step_; }

 private:
  std::vector<Action> script_;
  double sens_;
  std::size_t step_ = 0;
  std::vector<std::size_t> on_step_;
};

// Credit scheduling that counts each VCPU's dispatches in its dispatch hook,
// which runs whether or not the trace layer is compiled in.
class CountingScheduler : public sched::CreditScheduler {
 public:
  explicit CountingScheduler(
      std::unordered_map<const Vcpu*, std::uint64_t>& counts)
      : counts_(&counts) {}

  void on_dispatched(Vcpu& v, virt::Pcpu& p) override {
    CreditScheduler::on_dispatched(v, p);
    ++(*counts_)[&v];
  }

 private:
  std::unordered_map<const Vcpu*, std::uint64_t>* counts_;
};

struct Rig {
  sim::Simulation simulation;
  std::unique_ptr<virt::Platform> platform;
  std::unordered_map<const Vcpu*, std::uint64_t> dispatch_counts;

  explicit Rig(int pcpus = 1, int nodes = 1, virt::ModelParams params = {}) {
    virt::PlatformConfig pc;
    pc.nodes = nodes;
    pc.pcpus_per_node = pcpus;
    pc.params = params;
    pc.seed = 99;
    platform = std::make_unique<virt::Platform>(simulation, pc);
  }

  virt::Vm& vm(int node, int vcpus, VmType type = VmType::kParallel) {
    return platform->create_vm(virt::NodeId{node}, type, vcpus);
  }

  /// Node 0's driver domain: binds events that VCPUs of several VMs (or
  /// none) wait on.
  virt::Vm& dom0() { return *platform->nodes()[0]->dom0(); }

  void start() {
    for (auto& node : platform->nodes()) {
      if (!node->has_scheduler()) {
        platform->make_scheduler<CountingScheduler>(node->id(), dispatch_counts);
      }
    }
    platform->engine().start();
  }

  /// Dispatches of `v` so far (nodes given their scheduler by start()).
  std::uint64_t dispatches(const Vcpu& v) const {
    const auto it = dispatch_counts.find(&v);
    return it == dispatch_counts.end() ? 0 : it->second;
  }
};

// No-jitter params so timing asserts are exact.
virt::ModelParams exact_params() {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 0;
  return p;
}

TEST(EngineTest, ComputeRunsToCompletionAndExits) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(5_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(vm.totals().run_time, 5_ms);
}

TEST(EngineTest, ComputeLongerThanSliceSplitsAcrossSlices) {
  Rig rig(1, 1, exact_params());
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(50_ms)});
  ScriptWorkload wb({Action::compute(50_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(10_s);
  // Both complete; with 30ms default slices each ran in 2 stints.
  EXPECT_EQ(a.totals().run_time, 50_ms);
  EXPECT_EQ(b.totals().run_time, 50_ms);
  EXPECT_GE(rig.dispatches(a.vcpus()[0]), 2u);
}

TEST(EngineTest, VcpuWithoutWorkloadNeverRuns) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  ScriptWorkload w({Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[1].state(), VcpuState::kDone);
  EXPECT_EQ(rig.dispatches(vm.vcpus()[1]), 0u);
}

TEST(EngineTest, SpinWaitBurnsCpuUntilSignal) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(vm);
  ScriptWorkload w({Action::spin_wait(ev), Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.call_at(7_ms, [&] { ev.signal(); });
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.totals().spin_cpu, 7_ms);       // on-CPU spin time
  EXPECT_EQ(vm.totals().spin_wall, 7_ms);      // wall episode latency
  EXPECT_EQ(vm.totals().spin_episodes, 1u);
  EXPECT_EQ(vm.totals().run_time, 8_ms);       // spin + compute
}

TEST(EngineTest, SpinOnSignalledEventIsZeroLatencyEpisode) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(vm);
  ev.signal();
  ScriptWorkload w({Action::spin_wait(ev)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.totals().spin_episodes, 1u);
  EXPECT_EQ(vm.totals().spin_wall, 0);
}

TEST(EngineTest, DescheduledSpinnerObservesSignalOnlyAtDispatch) {
  // Two VCPUs on one PCPU: the spinner is descheduled when its event fires,
  // so the episode's wall latency includes the wait for its next slice —
  // the Fig. 3 behaviour.
  Rig rig(1, 1, exact_params());
  virt::Vm& spin_vm = rig.vm(0, 1);
  virt::Vm& hog_vm = rig.vm(0, 1);
  virt::SyncEvent ev(spin_vm);
  ScriptWorkload spinner({Action::spin_wait(ev)});
  ScriptWorkload hog({Action::compute(300_ms)});
  spin_vm.vcpus()[0].set_workload(&spinner);
  hog_vm.vcpus()[0].set_workload(&hog);
  rig.start();
  // Fire while the hog holds the PCPU (spinner descheduled).
  rig.simulation.call_at(35_ms, [&] { ev.signal(); });
  rig.simulation.run_until(2_s);
  EXPECT_EQ(spin_vm.totals().spin_episodes, 1u);
  // Episode ends at the spinner's next dispatch, i.e. strictly after 35ms.
  EXPECT_GT(spin_vm.totals().spin_wall, 35_ms);
}

TEST(EngineTest, BlockWaitHaltsAndWakes) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(vm);
  ScriptWorkload w({Action::block_wait(ev), Action::compute(2_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(5_ms);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  ev.signal();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  // Blocked time is not CPU time.
  EXPECT_EQ(vm.totals().run_time, 2_ms);
  EXPECT_EQ(vm.totals().spin_cpu, 0);
}

TEST(EngineTest, BlockWakeCountsAsWakeup) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(vm);
  ScriptWorkload w({Action::block_wait(ev)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.call_at(1_ms, [&] { ev.signal(); });
  rig.simulation.run_until(1_s);
  // No monitor resets the period accumulator in this rig.
  EXPECT_EQ(vm.period().wakeups, 1u);
}

TEST(EngineTest, DepositToRunningVmIsImmediate) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(100_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  bool delivered = false;
  sim::SimTime at = -1;
  // The timer holds a reference to the IRQ, which fits InlineCallback's
  // 24-byte capture budget; the IRQ itself captures four references.
  auto irq = [&] {
    rig.platform->engine().deposit(vm, [&] {
      delivered = true;
      at = rig.simulation.now();
    });
  };
  rig.simulation.call_at(3_ms, [&irq] { irq(); });
  rig.simulation.run_until(10_ms);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, 3_ms);  // IRQ into a running guest: handled immediately
}

TEST(EngineTest, DepositToBlockedVmWakesAndDrainsOnDispatch) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent never(vm);
  ScriptWorkload w({Action::block_wait(never)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(5_ms);
  ASSERT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  bool delivered = false;
  rig.platform->engine().deposit(vm, [&] { delivered = true; });
  rig.simulation.run_until(10_ms);
  EXPECT_TRUE(delivered);  // woken by the event-channel IRQ, mail drained
  // The VCPU re-blocked afterwards (its event never fires).
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
}

TEST(EngineTest, DepositToDescheduledVmWaitsForDispatch) {
  // VM is runnable (spinning) but off-CPU behind a hog: mail is processed
  // only once the VM gets scheduled again — overhead source 4 of Fig. 4.
  Rig rig(1, 1, exact_params());
  virt::Vm& spin_vm = rig.vm(0, 1);
  virt::Vm& hog_vm = rig.vm(0, 1);
  virt::SyncEvent never(spin_vm);
  ScriptWorkload spinner({Action::spin_wait(never)});
  ScriptWorkload hog({Action::compute(300_ms)});
  spin_vm.vcpus()[0].set_workload(&spinner);
  hog_vm.vcpus()[0].set_workload(&hog);
  rig.start();
  sim::SimTime delivered_at = -1;
  rig.simulation.call_at(35_ms, [&] {
    // At t=35ms the hog occupies the PCPU (its slice started at 30ms).
    if (!spin_vm.any_running()) {
      rig.platform->engine().deposit(
          spin_vm, [&] { delivered_at = rig.simulation.now(); });
    } else {
      GTEST_SKIP() << "unexpected schedule; spinner running";
    }
  });
  rig.simulation.run_until(2_s);
  EXPECT_GT(delivered_at, 35_ms);
}

TEST(EngineTest, ContextSwitchChargesDebtAndMisses) {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 10_us;
  p.cache_refill_penalty = 100_us;
  p.cache_warm_ratio = 1.0;
  p.llc_misses_per_refill = 1000;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(100_ms)});
  ScriptWorkload wb({Action::compute(100_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(5_s);
  // Alternating 30ms slices: several switches each, each charging misses.
  EXPECT_GT(a.totals().ctx_switches, 1u);
  EXPECT_GT(a.totals().llc_misses, 0u);
  // Wall completion is later than pure compute due to debt.
  EXPECT_EQ(a.totals().run_time + b.totals().run_time,
            rig.platform->node(virt::NodeId{0}).pcpus()[0].totals().busy);
}

TEST(EngineTest, FirstDispatchHasNoRefillDebt) {
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 10_ms;  // huge: would be visible
  p.cache_warm_ratio = 1.0;
  Rig rig(1, 1, p);
  virt::Vm& vm = rig.vm(0, 1);
  ScriptWorkload w({Action::compute(5_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_s);
  // last_stint was 0 at first dispatch, so no refill debt was charged.
  EXPECT_EQ(vm.totals().run_time, 5_ms);
}

TEST(EngineTest, CacheDebtBoundedByLastStint) {
  // With 100us slices and a 10ms nominal refill, the charged debt per
  // dispatch is capped at warm_ratio * last_stint, so compute still
  // progresses (no livelock).
  virt::ModelParams p;
  p.slice_jitter = 0.0;
  p.context_switch_cost = 0;
  p.cache_refill_penalty = 10_ms;
  p.cache_warm_ratio = 0.5;
  p.default_time_slice = 100_us;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(20_ms)});
  ScriptWorkload wb({Action::compute(20_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(30_s);
  EXPECT_EQ(a.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(b.vcpus()[0].state(), VcpuState::kDone);
}

TEST(EngineTest, MinTimeSliceClampsTinySlices) {
  virt::ModelParams p = exact_params();
  p.min_time_slice = 50_us;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  a.set_time_slice(1);  // 1 ns, clamped to 50us
  b.set_time_slice(1);
  ScriptWorkload wa({Action::compute(1_ms)});
  ScriptWorkload wb({Action::compute(1_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.run_until(1_s);
  // 2ms of work in 50us slices: at most ~40 dispatches each (plus noise),
  // far fewer than the millions 1ns slices would give.
  EXPECT_LE(rig.dispatches(a.vcpus()[0]), 50u);
}

TEST(EngineTest, PcpuBusyMatchesVcpuRunTotals) {
  Rig rig(2, 1, exact_params());
  std::vector<std::unique_ptr<ScriptWorkload>> scripts;
  for (int i = 0; i < 4; ++i) {
    virt::Vm& vm = rig.vm(0, 1);
    scripts.push_back(std::make_unique<ScriptWorkload>(
        std::vector<Action>{Action::compute(40_ms)}));
    vm.vcpus()[0].set_workload(scripts.back().get());
  }
  rig.start();
  rig.simulation.run_until(5_s);
  sim::SimTime busy = 0;
  for (auto& p : rig.platform->node(virt::NodeId{0}).pcpus()) {
    busy += p.totals().busy;
  }
  EXPECT_EQ(busy, 4 * 40_ms);
}

TEST(EngineTest, RequestReschedHonorsRatelimit) {
  virt::ModelParams p = exact_params();
  p.preempt_min_run = 1_ms;
  Rig rig(1, 1, p);
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(20_ms)});
  ScriptWorkload wb({Action::compute(20_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  // Preempt immediately after the first dispatch: must be deferred to 1ms.
  virt::Pcpu& pcpu = rig.platform->node(virt::NodeId{0}).pcpus()[0];
  rig.simulation.call_at(0, [&] {
    rig.platform->engine().request_resched(pcpu);
  });
  rig.simulation.run_until(500_us);
  // Current vcpu still running (ratelimit prevents a 0-run preemption).
  EXPECT_FALSE(pcpu.idle());
  sim::SimTime first_stint_end = 0;
  (void)first_stint_end;
  rig.simulation.run_until(2_s);
  EXPECT_EQ(a.totals().run_time + b.totals().run_time, 40_ms);
}

TEST(EngineTest, TwoIdenticalRunsAreDeterministic) {
  auto run_once = [] {
    Rig rig(2, 1);
    std::vector<std::unique_ptr<ScriptWorkload>> scripts;
    for (int i = 0; i < 6; ++i) {
      virt::Vm& vm = rig.vm(0, 1);
      scripts.push_back(std::make_unique<ScriptWorkload>(
          std::vector<Action>{Action::compute(17_ms),
                              Action::compute(9_ms)}));
      vm.vcpus()[0].set_workload(scripts.back().get());
    }
    rig.start();
    rig.simulation.run_until(3_s);
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < rig.platform->vm_count(); ++i) {
      out.push_back(rig.platform->vm(virt::VmId{static_cast<int>(i)})
                        .totals()
                        .ctx_switches);
    }
    out.push_back(rig.simulation.events_executed());
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SyncEventTest, SignalIsIdempotent) {
  Rig rig(1);
  virt::SyncEvent ev(rig.dom0());
  EXPECT_FALSE(ev.signalled());
  ev.signal();
  EXPECT_TRUE(ev.signalled());
  ev.signal();  // no effect, no crash
  EXPECT_TRUE(ev.signalled());
}

// Scripted workload that appends `tag` to a shared log each time its
// script advances past a wait, so tests can read the order waiters resumed.
class ResumeLogWorkload : public ScriptWorkload {
 public:
  ResumeLogWorkload(std::vector<Action> script, int tag, std::vector<int>* log)
      : ScriptWorkload(std::move(script)), tag_(tag), log_(log) {}
  Action next(Vcpu& self) override {
    if (waited_) log_->push_back(tag_);
    Action a = ScriptWorkload::next(self);
    waited_ = a.kind == Action::Kind::kSpinWait ||
              a.kind == Action::Kind::kBlockWait;
    return a;
  }

 private:
  int tag_;
  std::vector<int>* log_;
  bool waited_ = false;
};

TEST(SyncEventTest, WaitersWakeInRegistrationOrder) {
  // Three single-VCPU VMs on three PCPUs reach the same spin barrier at 3,
  // 1 and 2 ms: registration order is vm1, vm2, vm0 — not creation order.
  Rig rig(3, 1, exact_params());
  virt::SyncEvent ev(rig.dom0());
  std::vector<int> resumed;
  std::vector<std::unique_ptr<ResumeLogWorkload>> ws;
  const sim::SimTime arrive[3] = {3_ms, 1_ms, 2_ms};
  std::vector<virt::Vm*> vms;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(&rig.vm(0, 1));
    ws.push_back(std::make_unique<ResumeLogWorkload>(
        std::vector<Action>{Action::compute(arrive[i]), Action::spin_wait(ev),
                            Action::compute(1_ms)},
        i, &resumed));
    vms.back()->vcpus()[0].set_workload(ws.back().get());
  }
#if ATCSIM_TRACE_ENABLED
  obs::TraceSink sink;
  rig.simulation.set_trace(&sink);
#endif
  rig.start();
  rig.simulation.run_until(4_ms);
  EXPECT_EQ(ev.first_waiter(), &vms[1]->vcpus()[0]);
  rig.simulation.call_at(5_ms, [&] { ev.signal(); });
  rig.simulation.run_until(1_s);
  EXPECT_EQ(resumed, (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(ev.first_waiter(), nullptr);
  for (virt::Vm* vm : vms) {
    EXPECT_EQ(vm->vcpus()[0].state(), VcpuState::kDone);
    EXPECT_EQ(vm->totals().spin_episodes, 1u);
  }
#if ATCSIM_TRACE_ENABLED
  // sync.signal names the first waiter and counts the list.
  int signals = 0;
  for (const obs::TraceEvent& e : sink.snapshot()) {
    if (e.cat != obs::TraceCat::kSync || e.type != obs::ev::kSignal) continue;
    ++signals;
    EXPECT_EQ(e.vm, vms[1]->id().value);
    EXPECT_EQ(e.vcpu, vms[1]->vcpus()[0].id().value);
    EXPECT_EQ(e.a0, 3);
  }
  EXPECT_EQ(signals, 1);
#endif
}

TEST(SyncEventTest, ReleasedSpinnerMayWaitOnAnotherEventReentrantly) {
  // vm0 registers on `first` before vm1.  The signal resumes vm0 in place,
  // and vm0 immediately spins on `second` — appending itself to another
  // list while `first`'s detached list is still being walked.  vm1, behind
  // it in that list, must still be released.
  Rig rig(2, 1, exact_params());
  virt::SyncEvent first(rig.dom0());
  virt::SyncEvent second(rig.dom0());
  virt::Vm& a = rig.vm(0, 1);
  virt::Vm& b = rig.vm(0, 1);
  ScriptWorkload wa({Action::compute(1_ms), Action::spin_wait(first),
                     Action::spin_wait(second), Action::compute(1_ms)});
  ScriptWorkload wb({Action::compute(2_ms), Action::spin_wait(first),
                     Action::compute(1_ms)});
  a.vcpus()[0].set_workload(&wa);
  b.vcpus()[0].set_workload(&wb);
  rig.start();
  rig.simulation.call_at(5_ms, [&] { first.signal(); });
  rig.simulation.run_until(5_ms + 1);
  EXPECT_EQ(first.first_waiter(), nullptr);
  EXPECT_EQ(second.first_waiter(), &a.vcpus()[0]);
  EXPECT_EQ(a.vcpus()[0].eng().next_waiter, nullptr);
  EXPECT_EQ(wb.steps_taken(), 3u);  // released into its final compute
  EXPECT_EQ(b.totals().spin_episodes, 1u);

  rig.simulation.call_at(9_ms, [&] { second.signal(); });
  rig.simulation.run_until(1_s);
  EXPECT_EQ(a.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(b.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(a.totals().spin_episodes, 2u);
  EXPECT_EQ(a.totals().spin_wall, (5_ms - 1_ms) + (9_ms - 5_ms));
  EXPECT_EQ(b.totals().spin_wall, 5_ms - 2_ms);
  EXPECT_EQ(second.first_waiter(), nullptr);
}

TEST(SyncEventTest, SignalWithNoWaiters) {
  Rig rig(1);
  virt::SyncEvent ev(rig.dom0());
#if ATCSIM_TRACE_ENABLED
  obs::TraceSink sink;
  rig.simulation.set_trace(&sink);
#endif
  ev.signal();
  EXPECT_TRUE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), nullptr);
#if ATCSIM_TRACE_ENABLED
  const std::vector<obs::TraceEvent> events = sink.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::ev::kSignal);
  EXPECT_EQ(events[0].vm, -1);
  EXPECT_EQ(events[0].a0, 0);
#endif
  ev.reset();
  EXPECT_FALSE(ev.signalled());
}

TEST(SyncEventTest, ResetAfterEveryWaiterProceededRearmsTheEvent) {
  // Two blocked waiters are released, run on, and block on the same event
  // again after the owner reset it: the second signal must wake both.
  Rig rig(2, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  virt::SyncEvent ev(vm);
  ScriptWorkload w0({Action::block_wait(ev), Action::compute(2_ms),
                     Action::block_wait(ev), Action::compute(1_ms)});
  ScriptWorkload w1({Action::block_wait(ev), Action::compute(2_ms),
                     Action::block_wait(ev), Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  rig.start();
  rig.simulation.call_at(1_ms, [&] { ev.signal(); });
  rig.simulation.call_at(2_ms, [&] {
    EXPECT_EQ(ev.first_waiter(), nullptr);
    ev.reset();
  });
  rig.simulation.run_until(4_ms);
  EXPECT_FALSE(ev.signalled());
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  EXPECT_EQ(vm.vcpus()[1].state(), VcpuState::kBlocked);
  EXPECT_NE(ev.first_waiter(), nullptr);
  ev.signal();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(vm.vcpus()[1].state(), VcpuState::kDone);
  EXPECT_EQ(vm.totals().run_time, 2 * (2_ms + 1_ms));
  EXPECT_EQ(vm.period().wakeups, 4u);
}

// The signalled flag is a sentinel value of the waiter list's tail, so the
// list and the flag must never mix: a signal detaches every waiter, and a
// reset clears the flag so that a new wait registers again.
TEST(SyncEventTest, SignalDetachesWaitersAndResetLetsANewWaitRegister) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 1);
  const Vcpu& v = vm.vcpus()[0];
  virt::SyncEvent ev(vm);
  ScriptWorkload w({Action::spin_wait(ev), Action::compute(2_ms),
                    Action::block_wait(ev), Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  rig.start();
  rig.simulation.run_until(1_ms);
  EXPECT_FALSE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), &v);

  ev.signal();
  EXPECT_TRUE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), nullptr);
  rig.simulation.run_until(2_ms);  // released into its compute
  EXPECT_TRUE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), nullptr);

  ev.reset();
  EXPECT_FALSE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), nullptr);
  rig.simulation.run_until(4_ms);  // blocks again at 3 ms
  EXPECT_EQ(v.state(), VcpuState::kBlocked);
  EXPECT_FALSE(ev.signalled());
  EXPECT_EQ(ev.first_waiter(), &v);

  ev.signal();
  rig.simulation.run_until(1_s);
  EXPECT_EQ(v.state(), VcpuState::kDone);
  EXPECT_EQ(w.steps_taken(), 4u);
}

#ifndef NDEBUG
// No VCPU registers on a signalled event: the engine tests signalled()
// before it waits, and add_waiter asserts it.
TEST(SyncEventDeathTest, AddWaiterOnSignalledEventAsserts) {
  Rig rig(1);
  virt::Vm& vm = rig.vm(0, 1);
  virt::SyncEvent ev(vm);
  ev.signal();
  EXPECT_DEATH(ev.add_waiter(vm.vcpus()[0]), "signalled SyncEvent");
}
#endif

TEST(SyncEventTest, EventFollowsItsVmToAnotherPlatform) {
  // The event names its VM, not an engine: after the VM moves to another
  // platform (here another simulation), a signal wakes it there, and it
  // finishes on the destination's PCPU.
  Rig src(1, 1, exact_params());
  Rig dst(1, 1, exact_params());
  virt::Vm& vm = src.vm(0, 1);
  virt::SyncEvent ev(vm);
  ScriptWorkload w({Action::block_wait(ev), Action::compute(1_ms)});
  vm.vcpus()[0].set_workload(&w);
  src.start();
  dst.start();
  src.simulation.run_until(1_ms);
  ASSERT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);
  ASSERT_EQ(ev.first_waiter(), &vm.vcpus()[0]);

  auto bundle = src.platform->engine().pause_and_expel(vm, 0);
  dst.simulation.run_until(2_ms);
  virt::Vm& moved =
      dst.platform->engine().adopt_and_resume(*bundle, virt::NodeId{0});
  ASSERT_EQ(&moved, &vm);
  // The source host's run queue and last PCPU do not travel.
  EXPECT_FALSE(vm.vcpus()[0].sched().queue.valid());
  EXPECT_FALSE(vm.vcpus()[0].sched().last_pcpu.valid());
  dst.simulation.run_until(3_ms);  // past the adoption's own dispatch
  ASSERT_EQ(vm.vcpus()[0].state(), VcpuState::kBlocked);

  ev.signal();
  dst.simulation.run_until(1_s);
  EXPECT_EQ(w.steps_taken(), 2u);
  EXPECT_EQ(vm.vcpus()[0].state(), VcpuState::kDone);
  EXPECT_EQ(dst.platform->node(virt::NodeId{0}).pcpus()[0].totals().busy,
            1_ms);
  EXPECT_EQ(src.platform->node(virt::NodeId{0}).pcpus()[0].totals().busy, 0);
}

TEST(VmTest, FirstBlockedAndAnyRunning) {
  Rig rig(1, 1, exact_params());
  virt::Vm& vm = rig.vm(0, 2);
  virt::SyncEvent never(vm);
  ScriptWorkload w0({Action::block_wait(never)});
  ScriptWorkload w1({Action::compute(50_ms)});
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  rig.start();
  rig.simulation.run_until(10_ms);
  EXPECT_EQ(vm.first_blocked(), &vm.vcpus()[0]);
  EXPECT_TRUE(vm.any_running());
}

}  // namespace
}  // namespace atcsim
