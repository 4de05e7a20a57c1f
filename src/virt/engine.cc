#include "virt/engine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "obs/trace.h"
#include "virt/scheduler.h"
#include "virt/sync_event.h"

namespace atcsim::virt {

using sim::SimTime;

namespace {

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

}  // namespace

Engine::Engine(sim::Simulation& simulation, Platform& platform)
    : sim_(&simulation), platform_(&platform) {}

void Engine::start() {
  assert(!started_ && "Engine::start called twice");
  started_ = true;
  // Create the reusable timer slots.  One set per PCPU plus a segment timer
  // per VCPU; every dispatch cycle re-arms these in place, so the steady
  // state never constructs a callback or touches the allocator.  Creation
  // order is irrelevant to determinism: only arm() consumes sequence
  // numbers.
  for (auto& node : platform_->nodes()) {
    for (auto& p : node->pcpus()) {
      Pcpu* pp = p.get();
      pp->eng().dispatch_timer = sim_->make_timer([this, pp] {
        pp->eng().dispatch_pending = false;
        dispatch(*pp);
      });
      pp->eng().slice_timer =
          sim_->make_timer([this, pp] { slice_expired(*pp); });
      pp->eng().resched_timer = sim_->make_timer([this, pp] {
        pp->eng().resched_pending = false;
        if (!pp->idle() && !pp->eng().in_dispatch) request_resched(*pp);
      });
    }
    for (auto& vm : node->vms()) {
      for (auto& v : vm->vcpus()) {
        Vcpu* vp = v.get();
        vp->eng().segment_timer = sim_->make_timer([this, vp] {
          Pcpu* p = vp->eng().on_pcpu;
          assert(p != nullptr && "segment timer fired off-CPU");
          compute_finished(*p, *vp);
        });
      }
    }
  }
  for (auto& node : platform_->nodes()) {
    assert(node->has_scheduler() && "every node needs a scheduler");
    node->scheduler().attach(*node, *this);
  }
  for (auto& node : platform_->nodes()) {
    for (auto& vm : node->vms()) {
      for (auto& v : vm->vcpus()) {
        if (v->workload() != nullptr) {
          v->set_state(VcpuState::kRunnable);
          ATCSIM_TRACE(sim_->trace(),
                       vcpu_event(sim_->now(), obs::TraceCat::kVcpu,
                                  obs::ev::kStart, *v));
          node->scheduler().vcpu_started(*v);
        }
      }
    }
  }
  for (auto& node : platform_->nodes()) kick_idle_pcpus(*node);
}

void Engine::schedule_dispatch(Pcpu& p) {
  if (p.eng().dispatch_pending) return;
  p.eng().dispatch_pending = true;
  sim_->arm_in(p.eng().dispatch_timer, 0);
}

void Engine::kick_idle_pcpus(Node& node) {
  for (auto& p : node.pcpus()) {
    if (p->idle()) schedule_dispatch(*p);
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
  mark_effect(vm);
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
    platform_->mark_period_activity(vm);
    vm.period().ctx_switches += 1;
    vm.totals().ctx_switches += 1;
    vm.period().llc_misses += misses;
    vm.totals().llc_misses += misses;
    p.totals().switches += 1;
    ++total_switches_;
  }
  v->sched().last_pcpu = p.id();
  p.eng().last_resident = v;
  v->mutable_totals().dispatches += 1;

  const SimTime now = sim_->now();
  const SimTime slice = platform_->dispatch_rng(p.node()).jittered(
      std::max(p.node().scheduler().slice_for(*v), mp.min_time_slice),
      mp.slice_jitter);
  p.eng().slice_end = now + slice;
  sim_->arm_at(p.eng().slice_timer, p.eng().slice_end);
  v->eng().stint_start = now;
  v->eng().segment_start = now;
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
  mark_effect(v->vm());  // next() advances the workload's effect distance
  const SimTime now = sim_->now();
  auto& e = v->eng();
  for (;;) {
    if (!e.action_valid) {
      e.action = v->workload()->next(*v);
      e.action_valid = true;
      if (e.action.kind == Action::Kind::kCompute) {
        e.compute_left = e.action.duration;
      }
    }
    switch (e.action.kind) {
      case Action::Kind::kCompute: {
        const SimTime need = e.cache_debt + e.compute_left;
        if (need <= 0) {
          e.action_valid = false;
          continue;
        }
        e.segment_start = now;
        const SimTime end = now + need;
        if (end < p.eng().slice_end) {
          sim_->arm_at(e.segment_timer, end);
        }
        return;  // compute until segment end or slice expiry
      }
      case Action::Kind::kSpinWait: {
        if (!e.in_spin_episode) {
          e.in_spin_episode = true;
          e.spin_episode_start = now;
          // The monitor must visit this VM even if the episode spans the
          // whole period without finishing (in-flight spins are folded at
          // each boundary).
          platform_->mark_period_activity(v->vm());
          ATCSIM_TRACE(sim_->trace(),
                       vcpu_event(now, obs::TraceCat::kSync,
                                  obs::ev::kSpinStart, *v));
        }
        SyncEvent* ev = e.action.event;
        if (ev->signalled()) {
          end_spin_episode(*v);
          e.action_valid = false;
          continue;
        }
        if (!e.wait_registered) {
          ev->add_waiter(*v);
          e.wait_registered = true;
        }
        e.segment_start = now;
        return;  // burn CPU until signal or slice expiry
      }
      case Action::Kind::kBlockWait: {
        SyncEvent* ev = e.action.event;
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

void Engine::account_segment(Pcpu& /*p*/, Vcpu& v) {
  // Marked even when nothing elapsed: every leave_cpu path runs through
  // here, and the state transition that follows moves the bound inputs.
  mark_effect(v.vm());
  const SimTime now = sim_->now();
  auto& e = v.eng();
  const SimTime elapsed = now - e.segment_start;
  e.segment_start = now;
  if (elapsed <= 0 || !e.action_valid) return;
  Vm& vm = v.vm();
  if (e.action.kind == Action::Kind::kCompute) {
    const SimTime pay = std::min(e.cache_debt, elapsed);
    e.cache_debt -= pay;
    e.compute_left -= elapsed - pay;
    if (e.compute_left < 0) e.compute_left = 0;
  } else if (e.action.kind == Action::Kind::kSpinWait) {
    v.mutable_totals().spin_cpu += elapsed;
    platform_->mark_period_activity(vm);
    vm.period().spin_cpu += elapsed;
    vm.totals().spin_cpu += elapsed;
  }
}

void Engine::leave_cpu(Pcpu& p, LeaveReason reason) {
  Vcpu* v = p.current();
  assert(v != nullptr);
  account_segment(p, *v);
  auto& e = v->eng();
  sim_->disarm(e.segment_timer);
  sim_->disarm(p.eng().slice_timer);  // no-op when the slice just expired
  const SimTime now = sim_->now();
  const SimTime stint = now - e.stint_start;
  e.last_stint = stint;
  Vm& vm = v->vm();
  platform_->mark_period_activity(vm);
  vm.period().run_time += stint;
  vm.totals().run_time += stint;
  v->mutable_totals().run += stint;
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
  platform_->mark_period_activity(vm);
  vm.period().spin_wall += wall;
  vm.period().spin_episodes += 1;
  vm.totals().spin_wall += wall;
  vm.totals().spin_episodes += 1;
}

void Engine::deposit(Vm& vm, sim::InlineCallback handler) {
  mark_effect(vm);  // handlers mutate the VM's workload state
  platform_->mark_period_activity(vm);
  vm.period().io_events += 1;
  vm.totals().io_events += 1;
  if (vm.any_running()) {
    // IRQ into a running guest: handled immediately.
    handler();
    return;
  }
  vm.mailbox().push_back(std::move(handler));
  ++deposits_pending_;
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
    assert(deposits_pending_ >= box.size());
    deposits_pending_ -= box.size();
    box.swap(scratch);
    for (auto& h : scratch) h();
    scratch.clear();
  }
}

namespace {

/// kTimeNever-absorbing addition (both operands are non-negative times).
sim::SimTime sat_add(sim::SimTime a, sim::SimTime b) {
  if (a >= sim::kTimeNever - b) return sim::kTimeNever;
  return a + b;
}

/// Minimum declared effect_distance over `ev`'s registered waiters
/// (kTimeNever when none): what a pending timer on `ev` owes before its
/// firing can reach the network.
sim::SimTime min_waiter_distance(const SyncEvent& ev) {
  SimTime dist = sim::kTimeNever;
  for (const Vcpu* w = ev.first_waiter(); w != nullptr;
       w = w->eng().next_waiter) {
    const Workload* wl = w->workload();
    dist = std::min(dist, wl != nullptr ? wl->effect_distance()
                                        : sim::SimTime{0});
  }
  return dist;
}

}  // namespace

void Engine::signal_in(SyncEvent& ev, sim::SimTime delay, Vm* owner) {
  const SimTime fire = sim_->now() + delay;
  if (effect_tracking_) {
    assert(ev.effect_pending_at() == 0 &&
           "one pending signal_in per event: re-arm only after firing");
    ev.set_effect_pending(fire);
    // No node while the waiter set is empty (an empty-waiter entry
    // contributes nothing); the first add_waiter re-keys and pushes.
    // Travelled timers re-armed by adopt_and_resume hit the non-empty case:
    // their waiters stayed registered across the migration.
    if (ev.first_waiter() != nullptr) push_effect_node(ev, fire);
  }
  SyncEvent* evp = &ev;
  const sim::EventId id = sim_->call_in(delay, [evp] { evp->signal(); });
  if (owner != nullptr) {
    prune_owned_timers();
    owned_timers_.push_back({owner, &ev, fire, id});
  }
}

void Engine::note_effect_at(sim::SimTime when) {
  if (!effect_tracking_) return;
  prune_effect_heap();
  effect_heap_.push_back({when, when, nullptr, 0});
  std::push_heap(effect_heap_.begin(), effect_heap_.end(),
                 [](const EffectNode& a, const EffectNode& b) {
                   return a.key > b.key;
                 });
}

void Engine::on_effect_event_changed(SyncEvent& ev) {
  const SimTime when = ev.effect_pending_at();
  assert(when != 0 && "notified with no pending timer");
  // Invalidate the current node unconditionally: add_waiter can *lower*
  // the true key below the stored one, where lazy top-validation alone
  // would never look.
  ev.bump_effect_seq();
  // An entry at or behind the clock contributes nothing (the firing is
  // already in flight this instant); neither does one nobody waits on.
  if (when <= sim_->now() || ev.first_waiter() == nullptr) return;
  push_effect_node(ev, when);
}

void Engine::push_effect_node(SyncEvent& ev, sim::SimTime when) {
  const SimTime key = sat_add(when, min_waiter_distance(ev));
  if (key == sim::kTimeNever) return;  // contributes nothing; skip the node
  prune_effect_heap();
  effect_heap_.push_back({key, when, &ev, ev.effect_seq()});
  std::push_heap(effect_heap_.begin(), effect_heap_.end(),
                 [](const EffectNode& a, const EffectNode& b) {
                   return a.key > b.key;
                 });
}

void Engine::prune_effect_heap() {
  // Amortized dead-node sweep: the lazy readers only discard at the top /
  // on iteration, so without this a long run could accrete dead nodes
  // below live ones.  The doubling threshold keeps the amortized cost O(1)
  // per push and the heap within 2x its live population; capacity is
  // retained.
  if (effect_heap_.size() < effect_prune_threshold_) return;
  const sim::SimTime now = sim_->now();
  for (std::size_t i = 0; i < effect_heap_.size();) {
    const EffectNode& n = effect_heap_[i];
    const bool dead =
        n.when <= now || (n.ev != nullptr && n.seq != n.ev->effect_seq());
    if (dead) {
      effect_heap_[i] = effect_heap_.back();
      effect_heap_.pop_back();
    } else {
      ++i;
    }
  }
  std::make_heap(effect_heap_.begin(), effect_heap_.end(),
                 [](const EffectNode& a, const EffectNode& b) {
                   return a.key > b.key;
                 });
  effect_prune_threshold_ =
      std::max<std::size_t>(kEffectPruneFloor, effect_heap_.size() * 2);
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
}

sim::SimTime Engine::earliest_effect_time() {
  assert(effect_tracking_ &&
         "bound query with the effect index disabled (unsharded gating)");
  if (differential_check_) {
    const SimTime inc = earliest_effect_time_incremental();
    const SimTime ref = earliest_effect_time_reference();
    if (inc != ref) {
      std::fprintf(stderr,
                   "earliest_effect_time mismatch at t=%lld: "
                   "incremental=%lld reference=%lld\n",
                   static_cast<long long>(sim_->now()),
                   static_cast<long long>(inc), static_cast<long long>(ref));
      std::abort();
    }
    return inc;
  }
  return earliest_effect_time_incremental();
}

sim::SimTime Engine::earliest_effect_time_incremental() {
  const SimTime now = sim_->now();
  if (deposits_pending_ > 0) return now;  // queued handlers may send at the
                                          // owning VM's next dispatch
  // Pending timers: the heap top, once dead generations (clock passed, or
  // the event's sequence moved on) are discarded.  Live nodes always carry
  // a current key — any waiter-set change re-pushed them.
  const auto greater = [](const EffectNode& a, const EffectNode& b) {
    return a.key > b.key;
  };
  while (!effect_heap_.empty()) {
    const EffectNode& top = effect_heap_.front();
    const bool dead = top.when <= now ||
                      (top.ev != nullptr && top.seq != top.ev->effect_seq());
    if (!dead) break;
    std::pop_heap(effect_heap_.begin(), effect_heap_.end(), greater);
    effect_heap_.pop_back();
  }
  SimTime bound = effect_heap_.empty() ? sim::kTimeNever
                                       : effect_heap_.front().key;
  // VCPU side: re-derive only the VMs an event has touched since the last
  // query, then read the fold root.
  refresh_dirty_vms();
  if (fold_cap_ > 0) {
    const BoundPair& root = fold_tree_[1];
    bound = std::min(bound, std::min(root.abs, sat_add(now, root.rel)));
  }
  return bound;
}

Engine::BoundPair Engine::vm_bound_pair(const Vm& vm) const {
  // One VM's slice of the reference per-VCPU scan, with the query time
  // factored out: `rel` terms are added to `now` at the root read.  The
  // split is exact — sat_add(now + x, d) == sat_add(now, sat_add(x, d))
  // for non-negative operands, on both sides of the saturation point.
  BoundPair bp;
  for (const auto& v : vm.vcpus()) {
    const auto& e = v->eng();
    const VcpuState st = v->state();
    if (st == VcpuState::kDone || st == VcpuState::kBlocked) continue;
    const Workload* wl = v->workload();
    const SimTime dist =
        wl != nullptr ? wl->effect_distance() : sim::SimTime{0};
    if (e.action_valid && e.action.kind == Action::Kind::kCompute) {
      if (st == VcpuState::kRunning) {
        bp.abs = std::min(
            bp.abs,
            sat_add(e.segment_start + e.cache_debt + e.compute_left, dist));
      } else {
        bp.rel = std::min(bp.rel,
                          sat_add(e.cache_debt + e.compute_left, dist));
      }
      continue;
    }
    if (e.action_valid &&
        (e.action.kind == Action::Kind::kSpinWait ||
         e.action.kind == Action::Kind::kBlockWait) &&
        !e.action.event->signalled()) {
      continue;
    }
    bp.rel = std::min(bp.rel, dist);
  }
  return bp;
}

void Engine::ensure_fold_capacity(std::size_t slots) {
  if (slots <= fold_cap_ && fold_cap_ > 0) return;
  std::size_t cap = fold_cap_ > 0 ? fold_cap_ : 1;
  while (cap < slots) cap *= 2;
  std::vector<BoundPair> tree(2 * cap);
  for (std::size_t i = 0; i < fold_synced_; ++i) {
    tree[cap + i] = fold_tree_[fold_cap_ + i];
  }
  for (std::size_t i = cap; i-- > 1;) {
    tree[i].abs = std::min(tree[2 * i].abs, tree[2 * i + 1].abs);
    tree[i].rel = std::min(tree[2 * i].rel, tree[2 * i + 1].rel);
  }
  fold_tree_.swap(tree);
  fold_cap_ = cap;
}

void Engine::update_fold_leaf(std::size_t slot, BoundPair bp) {
  std::size_t i = fold_cap_ + slot;
  if (fold_tree_[i] == bp) return;
  fold_tree_[i] = bp;
  for (i /= 2; i >= 1; i /= 2) {
    const BoundPair merged{
        std::min(fold_tree_[2 * i].abs, fold_tree_[2 * i + 1].abs),
        std::min(fold_tree_[2 * i].rel, fold_tree_[2 * i + 1].rel)};
    if (fold_tree_[i] == merged) return;  // ancestors unchanged too
    fold_tree_[i] = merged;
  }
}

void Engine::refresh_dirty_vms() {
  const std::size_t total = platform_->vm_count();
  ensure_fold_capacity(total);
  std::uint64_t recomputed = 0;
  // VMs created or adopted since the last query occupy the id-space tail;
  // sweep them in without needing a creation-time hook.
  for (std::size_t i = fold_synced_; i < total; ++i) {
    Vm* vm = platform_->vm_ptr(VmId{static_cast<std::int32_t>(i)});
    if (vm != nullptr) {
      vm->set_effect_bound_dirty(false);
      update_fold_leaf(i, vm_bound_pair(*vm));
    } else {
      update_fold_leaf(i, BoundPair{});
    }
    ++recomputed;
  }
  fold_synced_ = total;
  for (const VmId id : effect_dirty_) {
    Vm* vm = platform_->vm_ptr(id);
    // Null: expelled since marking (its leaf was tombstoned then).  Clean
    // flag: already re-derived by the tail sweep above.
    if (vm == nullptr || !vm->effect_bound_dirty()) continue;
    vm->set_effect_bound_dirty(false);
    update_fold_leaf(static_cast<std::size_t>(id.index()),
                     vm_bound_pair(*vm));
    ++recomputed;
  }
  effect_dirty_.clear();
  bound_stats_.recomputes += recomputed;
  bound_stats_.cache_hits += total > recomputed ? total - recomputed : 0;
}

sim::SimTime Engine::earliest_effect_time_reference() {
  const SimTime now = sim_->now();
  if (deposits_pending_ > 0) return now;  // queued handlers may send at the
                                          // owning VM's next dispatch
  SimTime bound = sim::kTimeNever;
  // Pending timers.  A direct-injection entry acts at its fire time; a
  // SyncEvent entry only starts its waiters, who then owe their own
  // declared distance before they can reach the network.  An entry whose
  // event has no registered waiters is dropped: any VCPU that waits on it
  // later reaches that wait through next() calls its own per-VCPU bound
  // below already covers (distance scans continue through wait steps).
  // The store is shared with the incremental heap; this scan is
  // order-agnostic (a min) and skips dead generations without pruning.
  for (const EffectNode& entry : effect_heap_) {
    if (entry.when <= now) continue;  // fired
    if (entry.ev == nullptr) {
      bound = std::min(bound, entry.when);
      continue;
    }
    if (entry.seq != entry.ev->effect_seq()) continue;  // stale generation
    bound = std::min(bound,
                     sat_add(entry.when, min_waiter_distance(*entry.ev)));
  }
  for (auto& node : platform_->nodes()) {
    for (auto& vm : node->vms()) {
      if (vm == nullptr) continue;  // expelled by migration (tombstone slot)
      for (auto& v : vm->vcpus()) {
        const auto& e = v->eng();
        const VcpuState st = v->state();
        if (st == VcpuState::kDone) continue;
        if (st == VcpuState::kBlocked) {
          // A blocked VCPU resumes only when something signals it: local
          // guest code (whose effect_distance contract covers the VCPUs it
          // unblocks), a registered timer (credited with this waiter's
          // distance above), a deposit (counted above), or an in-flight I/O
          // completion (the caller's packets_in_flight check).  It
          // contributes no bound of its own.
          continue;
        }
        const Workload* wl = v->workload();
        const SimTime dist =
            wl != nullptr ? wl->effect_distance() : sim::SimTime{0};
        if (e.action_valid && e.action.kind == Action::Kind::kCompute) {
          // The current segment completes when its remaining debt + work is
          // burned (preemption only pushes that later; the fields are as of
          // segment_start, and a descheduled segment still owes debt + left
          // from whenever it is next dispatched, >= now).  Only then does
          // next() run, and the program is still `dist` away from the
          // network at that point.
          const SimTime base =
              (st == VcpuState::kRunning ? e.segment_start : now) +
              e.cache_debt + e.compute_left;
          bound = std::min(bound, sat_add(base, dist));
          continue;
        }
        if (e.action_valid &&
            (e.action.kind == Action::Kind::kSpinWait ||
             e.action.kind == Action::Kind::kBlockWait) &&
            !e.action.event->signalled()) {
          // Unsignalled waiter: proceeds only when signalled, and every
          // signal source is covered — guest signallers by the unblock
          // clause of their own effect_distance, timers by the entry loop
          // above, deposits and I/O chains by their counters.
          continue;
        }
        // Signalled waiter awaiting dispatch, or a fresh/woken VCPU with no
        // action drawn: next() can run at its very next dispatch (>= now),
        // after which the program owes `dist` before touching the network.
        bound = std::min(bound, sat_add(now, dist));
      }
    }
  }
  return bound;
}

std::unique_ptr<MigrationBundle> Engine::pause_and_expel(
    Vm& vm, std::int32_t dest_node_global, SimTime arrive_time) {
  assert(started_ && "migration before Engine::start");
  assert(!vm.is_dom0() && "dom0 cannot migrate");
  Node& node = vm.node();
  assert(node.scheduler().supports_migration());

  // Force running VCPUs off their PCPUs first: leave_cpu accounts the
  // partial stint and charges the scheduler exactly as a preemption would.
  for (auto& v : vm.vcpus()) {
    if (v->state() == VcpuState::kRunning) {
      Pcpu* p = v->eng().on_pcpu;
      assert(p != nullptr && p->current() == v.get());
      leave_cpu(*p, LeaveReason::kPreempt);
    }
  }

  auto bundle = std::make_unique<MigrationBundle>();
  bundle->gid = vm.global_id();
  bundle->dest_node_global = dest_node_global;
  bundle->depart_time = sim_->now();
  bundle->arrive_time = arrive_time;

  // Out of the run queues, then park every VCPU for the copy window.  The
  // segment timers belong to this shard's simulation and stay behind;
  // adopt_and_resume makes fresh ones.
  node.scheduler().vm_departing(vm);
  bundle->vcpu_runnable.reserve(vm.vcpus().size());
  for (auto& v : vm.vcpus()) {
    bundle->vcpu_runnable.push_back(v->state() == VcpuState::kRunnable);
    bundle->credits_total += v->sched().credits;
    if (v->state() != VcpuState::kDone) v->set_state(VcpuState::kBlocked);
    sim_->disarm(v->eng().segment_timer);
    v->eng().on_pcpu = nullptr;
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
        // The cancelled firing leaves this engine's effect index: the event
        // travels, and re-arming on the destination makes a fresh entry
        // there.  The sequence bump also stops the destination's later
        // activity from resurrecting our stale heap node.
        t.ev->clear_effect_pending();
      }
      owned_timers_[i] = owned_timers_.back();
      owned_timers_.pop_back();
    } else {
      ++i;
    }
  }

  // Queued event-channel mail travels inside the Vm's mailbox; it stops
  // counting against this engine's pending-deposit bound.
  assert(deposits_pending_ >= vm.mailbox().size());
  deposits_pending_ -= vm.mailbox().size();
  bundle->mailbox_count = vm.mailbox().size();

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

  // The slot becomes a tombstone; its cached bound must stop contributing
  // (slots past fold_synced_ are swept as null at the next query anyway).
  const auto slot = static_cast<std::size_t>(vm.id().index());
  if (effect_tracking_ && slot < fold_synced_) {
    update_fold_leaf(slot, BoundPair{});
  }
  bundle->vm = platform_->expel_vm(vm);
  assert(bundle->vm != nullptr);
  return bundle;
}

Vm& Engine::adopt_and_resume(MigrationBundle& bundle, NodeId dest_node) {
  assert(started_ && "migration before Engine::start");
  assert(bundle.vm != nullptr);
  Vm& vm = platform_->adopt_vm(dest_node, std::move(bundle.vm));
  Node& node = vm.node();
  assert(node.scheduler().supports_migration());
  node.scheduler().vm_arrived(vm);
  // The dirty flag may still be set from the source engine's ring (that
  // entry now resolves to a tombstone there); clear it so this engine's
  // mark actually enrolls the VM in *its* ring.
  vm.set_effect_bound_dirty(false);
  mark_effect(vm);

  // Queued mail re-enters this engine's pending-deposit accounting.
  deposits_pending_ += vm.mailbox().size();

  // Fresh per-VCPU segment timers on this simulation (the source slots are
  // orphaned there, permanently disarmed).
  for (auto& v : vm.vcpus()) {
    Vcpu* vp = v.get();
    vp->eng().segment_timer = sim_->make_timer([this, vp] {
      Pcpu* p = vp->eng().on_pcpu;
      assert(p != nullptr && "segment timer fired off-CPU");
      compute_finished(*p, *vp);
    });
  }

  // Workload rebind hooks run before any VCPU resumes, so the first next()
  // on this node already sees the destination engine/network.
  for (auto& v : vm.vcpus()) {
    if (v->workload() != nullptr) v->workload()->on_vm_migrated(vm, *this);
  }

  // Travelled timers re-arm with their remaining delays.
  for (const auto& t : bundle.timers) {
    signal_in(*t.ev, std::max<SimTime>(t.remaining, 0), &vm);
  }

  ATCSIM_TRACE(sim_->trace(), [&] {
    double credits = 0.0;
    for (auto& v : vm.vcpus()) credits += v->sched().credits;
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
  for (auto& v : vm.vcpus()) {
    const bool was_runnable = bundle.vcpu_runnable[i++];
    if (v->state() == VcpuState::kDone) continue;
    if (was_runnable) {
      v->set_state(VcpuState::kRunnable);
      node.scheduler().vcpu_started(*v);
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
  mark_effect(v.vm());
  v.set_state(VcpuState::kRunnable);
  ATCSIM_TRACE(sim_->trace(), vcpu_event(sim_->now(), obs::TraceCat::kVcpu,
                                         obs::ev::kWake, v));
  platform_->mark_period_activity(v.vm());
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
  Vcpu* v = p.current();
  const SimTime min_run = params().preempt_min_run;
  const SimTime earliest = v->eng().stint_start + min_run;
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
    mark_effect(v->vm());  // the wait this VCPU was parked on is gone
    e.wait_registered = false;
    switch (v->state()) {
      case VcpuState::kBlocked:
        wake(*v);
        break;
      case VcpuState::kRunning: {
        Pcpu* p = e.on_pcpu;
        assert(p != nullptr);
        if (p->eng().in_dispatch) break;  // dispatch's run_current handles it
        if (e.action_valid && e.action.kind == Action::Kind::kSpinWait) {
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
