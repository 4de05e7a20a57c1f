#include "virt/engine.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "virt/scheduler.h"
#include "virt/sync_event.h"

namespace atcsim::virt {

using sim::SimTime;

namespace {

/// A workload timer's callback: signals its event.  Its prefetch hook names
/// the event, which is what signal() reads first.
struct SignalEvent {
  SyncEvent* ev;
  void operator()() const { ev->signal(); }
  void prefetch() const { sim::prefetch_lines(ev); }
};

#if ATCSIM_TRACE_ENABLED
/// Builds a kVcpu/kSync trace event with the VCPU's full identity.
obs::TraceEvent vcpu_event(SimTime now, obs::TraceCat cat, std::uint8_t type,
                           const Vcpu& v, std::int64_t a0 = 0,
                           std::int64_t a1 = 0) {
  obs::TraceEvent e;
  e.time = now;
  e.cat = cat;
  e.type = type;
  e.node = v.vm().node().id().value;
  e.vm = v.vm().id().value;
  e.vcpu = v.id().value;
  e.pcpu = v.eng().on_pcpu != nullptr ? v.eng().on_pcpu->id().value : -1;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}
#endif

}  // namespace

Engine::Engine(sim::Simulation& simulation, Platform& platform)
    : sim_(&simulation), platform_(&platform) {}

void Engine::start() {
  assert(!started_ && "Engine::start called twice");
  started_ = true;
  // Create the reusable timer slots: dispatch, slice, resched and compute
  // per PCPU, none per VCPU (only the VCPU on a core can compute, so its
  // PCPU's compute timer serves it, and a migrating VM leaves no slots
  // behind).  Every dispatch cycle re-arms these in place, so the steady
  // state never constructs a callback or touches the allocator.  Creation
  // order is irrelevant to determinism: only arm() consumes sequence
  // numbers.
  for (auto& node : platform_->nodes()) {
    for (Pcpu& p : node->pcpus()) {
      p.eng().dispatch_timer = sim_->make_timer(
          PcpuTimer<&Engine::dispatch_timer_fired>{this, &p});
      p.eng().slice_timer =
          sim_->make_timer(PcpuTimer<&Engine::slice_expired>{this, &p});
      p.eng().resched_timer = sim_->make_timer(
          PcpuTimer<&Engine::resched_timer_fired>{this, &p});
      p.eng().compute_timer = sim_->make_timer(
          PcpuTimer<&Engine::compute_timer_fired>{this, &p});
    }
  }
  for (auto& node : platform_->nodes()) {
    assert(node->has_scheduler() && "every node needs a scheduler");
    node->scheduler().attach(*node, *this);
  }
  for (auto& node : platform_->nodes()) {
    for (auto& vm : node->vms()) {
      for (Vcpu& v : vm->vcpus()) {
        if (v.workload() != nullptr) {
          v.set_state(VcpuState::kRunnable);
          ATCSIM_TRACE(sim_->trace(),
                       vcpu_event(sim_->now(), obs::TraceCat::kVcpu,
                                  obs::ev::kStart, v));
          node->scheduler().vcpu_started(v);
        }
      }
    }
  }
  for (auto& node : platform_->nodes()) kick_idle_pcpus(*node);
}

void Engine::dispatch_timer_fired(Pcpu& p) {
  p.eng().dispatch_pending = false;
  dispatch(p);
}

void Engine::resched_timer_fired(Pcpu& p) {
  p.eng().resched_pending = false;
  if (!p.idle() && !p.eng().in_dispatch) request_resched(p);
}

void Engine::compute_timer_fired(Pcpu& p) {
  assert(!p.idle() && "compute timer fired on an idle PCPU");
  compute_finished(p, *p.current());
}

void Engine::schedule_dispatch(Pcpu& p) {
  if (p.eng().dispatch_pending) return;
  p.eng().dispatch_pending = true;
  sim_->arm_in(p.eng().dispatch_timer, 0);
}

void Engine::kick_idle_pcpus(Node& node) {
  for (Pcpu& p : node.pcpus()) {
    if (p.idle()) schedule_dispatch(p);
  }
}

void Engine::dispatch(Pcpu& p) {
  if (!p.idle()) return;
  Vcpu* v = p.node().scheduler().pick_next(p);
  if (v == nullptr) return;
  assert(v->runnable() && "picked VCPU must be runnable");

  p.eng().in_dispatch = true;
  p.set_current(v);
  v->set_state(VcpuState::kRunning);
  v->eng().on_pcpu = &p;
  Vm& vm = v->vm();
  const ModelParams& mp = params();

  // Context-switch + cache-refill costs.  The direct switch cost and the
  // refill penalty are both modelled as "debt": CPU time the VCPU must burn
  // before its compute makes progress.  No debt when the same VCPU resumes
  // on the same core with nothing in between.
  const bool polluted = (p.eng().last_resident != v) ||
                        (v->sched().last_pcpu.valid() &&
                         v->sched().last_pcpu != p.id());
  if (polluted) {
    const double sens = v->workload()->cache_sensitivity();
    // The VCPU can only lose the cache state it warmed during its previous
    // stint, so short slices bound the refill cost they cause.
    const SimTime refill = std::min(
        static_cast<SimTime>(static_cast<double>(mp.cache_refill_penalty) *
                             sens),
        static_cast<SimTime>(static_cast<double>(v->eng().last_stint) *
                             mp.cache_warm_ratio));
    v->eng().cache_debt += mp.context_switch_cost + refill;
    const double refill_frac =
        sens <= 0.0 ? 0.0
                    : static_cast<double>(refill) /
                          static_cast<double>(mp.cache_refill_penalty);
    const auto misses = static_cast<std::uint64_t>(
        static_cast<double>(mp.llc_misses_per_refill) * refill_frac);
    vm.totals().ctx_switches += 1;
    vm.period().llc_misses += misses;
    vm.totals().llc_misses += misses;
    ++total_switches_;
  }
  v->sched().last_pcpu = p.id();
  p.eng().last_resident = v;

  const SimTime now = sim_->now();
  const SimTime slice = platform_->dispatch_rng(p.node()).jittered(
      std::max(p.node().scheduler().slice_for(*v), mp.min_time_slice),
      mp.slice_jitter);
  p.eng().slice_end = now + slice;
  sim_->arm_at(p.eng().slice_timer, p.eng().slice_end);
  p.eng().stint_start = now;
  p.eng().segment_start = now;
  ATCSIM_TRACE(sim_->trace(),
               vcpu_event(now, obs::TraceCat::kVcpu, obs::ev::kDispatch, *v,
                          slice, v->eng().cache_debt));

  // VM entry processes pending event-channel notifications (IRQs).
  drain_mailbox(vm);

  p.eng().in_dispatch = false;
  p.node().scheduler().on_dispatched(*v, p);
  run_current(p);
}

void Engine::run_current(Pcpu& p) {
  Vcpu* v = p.current();
  assert(v != nullptr && v->running());
  const SimTime now = sim_->now();
  auto& e = v->eng();
  for (;;) {
    if (!e.action_valid) {
      const Action a = v->workload()->next(*v);
      e.kind = a.kind;
      e.event = a.event;
      e.action_valid = true;
      if (a.kind == Action::Kind::kCompute) e.compute_left = a.duration;
    }
    switch (e.kind) {
      case Action::Kind::kCompute: {
        const SimTime need = e.cache_debt + e.compute_left;
        if (need <= 0) {
          e.action_valid = false;
          continue;
        }
        p.eng().segment_start = now;
        const SimTime end = now + need;
        if (end < p.eng().slice_end) {
          sim_->arm_at(p.eng().compute_timer, end);
        }
        return;  // compute until segment end or slice expiry
      }
      case Action::Kind::kSpinWait: {
        if (!e.in_spin_episode) {
          e.in_spin_episode = true;
          e.spin_episode_start = now;
          ATCSIM_TRACE(sim_->trace(),
                       vcpu_event(now, obs::TraceCat::kSync,
                                  obs::ev::kSpinStart, *v));
        }
        SyncEvent* ev = e.event;
        if (ev->signalled()) {
          end_spin_episode(*v);
          e.action_valid = false;
          continue;
        }
        if (!e.wait_registered) {
          ev->add_waiter(*v);
          e.wait_registered = true;
        }
        p.eng().segment_start = now;
        return;  // burn CPU until signal or slice expiry
      }
      case Action::Kind::kBlockWait: {
        SyncEvent* ev = e.event;
        if (ev->signalled()) {
          e.wait_registered = false;
          e.action_valid = false;
          continue;
        }
        if (!e.wait_registered) {
          ev->add_waiter(*v);
          e.wait_registered = true;
        }
        leave_cpu(p, LeaveReason::kBlock);
        return;
      }
      case Action::Kind::kExit:
        leave_cpu(p, LeaveReason::kExit);
        return;
    }
  }
}

void Engine::compute_finished(Pcpu& p, Vcpu& v) {
  assert(p.current() == &v);
  account_segment(p, v);
  assert(v.eng().cache_debt <= 0 && v.eng().compute_left <= 0);
  v.eng().action_valid = false;
  run_current(p);
}

void Engine::slice_expired(Pcpu& p) {
  assert(!p.idle() && "slice expiry on an idle PCPU");
  leave_cpu(p, LeaveReason::kSliceEnd);
}

void Engine::account_segment(Pcpu& p, Vcpu& v) {
  const SimTime now = sim_->now();
  auto& e = v.eng();
  const SimTime elapsed = now - p.eng().segment_start;
  p.eng().segment_start = now;
  if (elapsed <= 0 || !e.action_valid) return;
  Vm& vm = v.vm();
  if (e.kind == Action::Kind::kCompute) {
    const SimTime pay = std::min(e.cache_debt, elapsed);
    e.cache_debt -= pay;
    e.compute_left -= elapsed - pay;
    if (e.compute_left < 0) e.compute_left = 0;
  } else if (e.kind == Action::Kind::kSpinWait) {
    vm.period().spin_cpu += elapsed;
    vm.totals().spin_cpu += elapsed;
  }
}

void Engine::leave_cpu(Pcpu& p, LeaveReason reason) {
  Vcpu* v = p.current();
  assert(v != nullptr);
  account_segment(p, *v);
  auto& e = v->eng();
  // Each is a no-op when its own expiry brought us here.
  sim_->disarm(p.eng().compute_timer);
  sim_->disarm(p.eng().slice_timer);
  const SimTime now = sim_->now();
  const SimTime stint = now - p.eng().stint_start;
  e.last_stint = stint;
  Vm& vm = v->vm();
  vm.period().run_time += stint;
  vm.totals().run_time += stint;
  p.totals().busy += stint;
  p.node().scheduler().charge(*v, stint);
  ATCSIM_TRACE(sim_->trace(),
               vcpu_event(now, obs::TraceCat::kVcpu, obs::ev::kLeave, *v,
                          static_cast<std::int64_t>(reason), stint));
  e.on_pcpu = nullptr;
  p.set_current(nullptr);
  switch (reason) {
    case LeaveReason::kSliceEnd:
    case LeaveReason::kPreempt:
      v->set_state(VcpuState::kRunnable);
      p.node().scheduler().on_deschedule(*v);
      break;
    case LeaveReason::kBlock:
      v->set_state(VcpuState::kBlocked);
      p.node().scheduler().on_block(*v);
      break;
    case LeaveReason::kExit:
      v->set_state(VcpuState::kDone);
      p.node().scheduler().on_exit(*v);
      break;
  }
  schedule_dispatch(p);
}

void Engine::end_spin_episode(Vcpu& v) {
  auto& e = v.eng();
  if (!e.in_spin_episode) return;
  // spin_episode_start is advanced by PeriodMonitor::sample at every period
  // boundary the episode spans, so `wall` here is only the segment since the
  // last boundary — earlier segments were already charged at sample time.
  const SimTime wall = sim_->now() - e.spin_episode_start;
  e.in_spin_episode = false;
  e.wait_registered = false;
  ATCSIM_TRACE(sim_->trace(), vcpu_event(sim_->now(), obs::TraceCat::kSync,
                                         obs::ev::kSpinEnd, v, wall));
  Vm& vm = v.vm();
  vm.period().spin_wall += wall;
  vm.period().spin_episodes += 1;
  vm.totals().spin_wall += wall;
  vm.totals().spin_episodes += 1;
}

void Engine::deposit(Vm& vm, sim::InlineCallback handler) {
  vm.period().io_events += 1;
  if (vm.any_running()) {
    // IRQ into a running guest: handled immediately.
    handler();
    return;
  }
  vm.mailbox().push_back(std::move(handler));
  // Event-channel interrupt: wake a halted VCPU so the VM gets scheduled.
  if (Vcpu* b = vm.first_blocked()) wake(*b);
}

void Engine::drain_mailbox(Vm& vm) {
  // Swap into the VM's retained scratch buffer instead of moving the vector
  // out: a move would surrender the mailbox's capacity and force the next
  // deposit burst to reallocate.  Handlers may deposit re-entrantly (they
  // land in the now-empty mailbox), hence the outer loop.
  auto& box = vm.mailbox();
  auto& scratch = vm.mailbox_scratch();
  while (!box.empty()) {
    assert(scratch.empty());
    box.swap(scratch);
    for (auto& h : scratch) h();
    scratch.clear();
  }
}

void Engine::signal_in(SyncEvent& ev, sim::SimTime delay) {
  assert(ev.vm() != nullptr && "signal_in() on an unbound SyncEvent");
  const sim::EventId id = sim_->call_in(delay, SignalEvent{&ev});
  if (owned_timers_.size() >= prune_at_) prune_owned_timers();
  owned_timers_.push_back({ev.vm(), &ev, sim_->now() + delay, id});
}

void Engine::prune_owned_timers() {
  // Fired entries (fire <= now) are dead: the EventId's generation moved on
  // when the event popped, so a later cancel() is a no-op either way; this
  // sweep just keeps the vector proportional to the live timer population.
  const sim::SimTime now = sim_->now();
  for (std::size_t i = 0; i < owned_timers_.size();) {
    if (owned_timers_[i].fire <= now) {
      owned_timers_[i] = owned_timers_.back();
      owned_timers_.pop_back();
    } else {
      ++i;
    }
  }
  prune_at_ = std::max(kMinPruneAt, 2 * owned_timers_.size());
}

std::unique_ptr<MigrationBundle> Engine::pause_and_expel(
    Vm& vm, std::int32_t dest_node_global) {
  assert(started_ && "migration before Engine::start");
  assert(!vm.is_dom0() && "dom0 cannot migrate");
  Node& node = vm.node();

  // Force running VCPUs off their PCPUs first: leave_cpu accounts the
  // partial stint and charges the scheduler exactly as a preemption would.
  for (Vcpu& v : vm.vcpus()) {
    if (v.state() == VcpuState::kRunning) {
      Pcpu* p = v.eng().on_pcpu;
      assert(p != nullptr && p->current() == &v);
      leave_cpu(*p, LeaveReason::kPreempt);
    }
  }

  auto bundle = std::make_unique<MigrationBundle>();
  bundle->dest_node_global = dest_node_global;
  bundle->depart_time = sim_->now();

  // Out of the run queues, then park every VCPU for the copy window.  No
  // VCPU is on a core any more, so none has a compute timer armed.
  node.scheduler().vm_departing(vm);
  bundle->vcpu_runnable.reserve(vm.vcpus().size());
  for (Vcpu& v : vm.vcpus()) {
    bundle->vcpu_runnable.push_back(v.state() == VcpuState::kRunnable);
    bundle->credits_total += v.sched().credits;
    if (v.state() != VcpuState::kDone) v.set_state(VcpuState::kBlocked);
  }

  // Owned workload timers: cancel here, travel as remaining delays.  A
  // cancel that returns false lost a race with its own firing inside this
  // same instant; the signal already happened, so nothing travels.
  const SimTime now = sim_->now();
  for (std::size_t i = 0; i < owned_timers_.size();) {
    OwnedTimer& t = owned_timers_[i];
    if (t.owner == &vm) {
      if (sim_->cancel(t.id)) {
        bundle->timers.push_back({t.ev, t.fire - now});
      }
      owned_timers_[i] = owned_timers_.back();
      owned_timers_.pop_back();
    } else {
      ++i;
    }
  }

  ATCSIM_TRACE(sim_->trace(), [&] {
    obs::TraceEvent e;
    e.time = now;
    e.cat = obs::TraceCat::kMigration;
    e.type = obs::ev::kMigDepart;
    e.node = node.id().value;
    e.vm = vm.id().value;
    e.a0 = dest_node_global;
    e.a1 = static_cast<std::int64_t>(bundle->credits_total * 1000.0);
    return e;
  }());

  // Queued event-channel mail travels inside the Vm's mailbox.
  platform_->expel_vm(vm);
  bundle->vm = &vm;
  return bundle;
}

Vm& Engine::adopt_and_resume(MigrationBundle& bundle, NodeId dest_node) {
  assert(started_ && "migration before Engine::start");
  assert(bundle.vm != nullptr);
  Vm& vm = platform_->adopt_vm(dest_node, *bundle.vm);
  Node& node = vm.node();
  node.scheduler().vm_arrived(vm);

  // Travelled timers re-arm with their remaining delays.
  for (const auto& t : bundle.timers) {
    signal_in(*t.ev, std::max<SimTime>(t.remaining, 0));
  }

  ATCSIM_TRACE(sim_->trace(), [&] {
    double credits = 0.0;
    for (const Vcpu& v : vm.vcpus()) credits += v.sched().credits;
    obs::TraceEvent e;
    e.time = sim_->now();
    e.cat = obs::TraceCat::kMigration;
    e.type = obs::ev::kMigArrive;
    e.node = node.id().value;
    e.vm = vm.id().value;
    e.a0 = bundle.depart_time;
    e.a1 = static_cast<std::int64_t>(credits * 1000.0);
    return e;
  }());

  // Resume: pre-pause runnable VCPUs go back to the queues via fresh
  // placement on this node.  Blocked ones stay blocked until their
  // (travelled) event signals — except that queued mail must wake one
  // VCPU, exactly as the deposit that queued it would have.
  std::size_t i = 0;
  bool any_runnable = false;
  for (Vcpu& v : vm.vcpus()) {
    const bool was_runnable = bundle.vcpu_runnable[i++];
    if (v.state() == VcpuState::kDone) continue;
    if (was_runnable) {
      v.set_state(VcpuState::kRunnable);
      node.scheduler().vcpu_started(v);
      any_runnable = true;
    }
  }
  if (!any_runnable && !vm.mailbox().empty()) {
    if (Vcpu* b = vm.first_blocked()) {
      b->set_state(VcpuState::kRunnable);
      node.scheduler().vcpu_started(*b);
    }
  }
  kick_idle_pcpus(node);
  return vm;
}

void Engine::wake(Vcpu& v) {
  if (v.state() != VcpuState::kBlocked) return;
  v.set_state(VcpuState::kRunnable);
  ATCSIM_TRACE(sim_->trace(), vcpu_event(sim_->now(), obs::TraceCat::kVcpu,
                                         obs::ev::kWake, v));
  v.vm().period().wakeups += 1;
  Node& node = v.vm().node();
  Scheduler& s = node.scheduler();
  s.on_wake(v);
  kick_idle_pcpus(node);
  if (params().wake_preemption) {
    if (Pcpu* target = s.wake_preemption_target(v)) {
      if (target->idle()) {
        schedule_dispatch(*target);
      } else if (!target->eng().in_dispatch) {
        request_resched(*target);
      }
    }
  }
}

void Engine::request_resched(Pcpu& p) {
  if (p.eng().in_dispatch) return;
  if (p.idle()) {
    schedule_dispatch(p);
    return;
  }
  // Ratelimit: guarantee a minimum stint before preemption, or gang
  // dispatch at synchronized slice boundaries preempts victims with zero
  // progress forever (Xen's sched_ratelimit exists for the same reason).
  const SimTime earliest = p.eng().stint_start + params().preempt_min_run;
  if (sim_->now() < earliest) {
    if (p.eng().resched_pending) return;
    p.eng().resched_pending = true;
    sim_->arm_at(p.eng().resched_timer, earliest);
    return;
  }
  leave_cpu(p, LeaveReason::kPreempt);
}

void Engine::on_signalled(Vcpu* first) {
  // Read each link before handling its VCPU: a released running spinner
  // re-enters run_current and may append itself to another event's list.
  for (Vcpu* next = first; next != nullptr;) {
    Vcpu* v = next;
    auto& e = v->eng();
    next = e.next_waiter;
    e.wait_registered = false;
    switch (v->state()) {
      case VcpuState::kBlocked:
        wake(*v);
        break;
      case VcpuState::kRunning: {
        Pcpu* p = e.on_pcpu;
        assert(p != nullptr);
        if (p->eng().in_dispatch) break;  // dispatch's run_current handles it
        if (e.action_valid && e.kind == Action::Kind::kSpinWait) {
          account_segment(*p, *v);
          end_spin_episode(*v);
          e.action_valid = false;
          run_current(*p);
        }
        break;
      }
      case VcpuState::kRunnable:
        // Descheduled spinner: it observes the flag when next dispatched;
        // the wall latency keeps accruing, exactly as in Fig. 3.
        break;
      case VcpuState::kDone:
        break;
    }
  }
}

}  // namespace atcsim::virt
