#include "sched/credit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/trace.h"
#include "virt/platform.h"

namespace atcsim::sched {

using sim::SimTime;
using virt::CreditPrio;
using virt::VcpuState;

namespace {

#if ATCSIM_TRACE_ENABLED
/// Credit balances are traced in millicredits so events stay integral.
std::int64_t mcr(double credits) { return std::llround(credits * 1e3); }

obs::TraceEvent sched_event(SimTime now, std::uint8_t type, const Vcpu& v,
                            std::int64_t a0 = 0, std::int64_t a1 = 0) {
  obs::TraceEvent e;
  e.time = now;
  e.cat = obs::TraceCat::kSched;
  e.type = type;
  e.node = v.vm().node().id().value;
  e.vm = v.vm().id().value;
  e.vcpu = v.id().value;
  e.pcpu = v.sched().queue.value;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}
#endif

}  // namespace

CreditScheduler::CreditScheduler(Options opts) : opts_(opts) {}

CreditScheduler::~CreditScheduler() {
  // A scheduler replaced at runtime must not leave its periodic
  // refill/tick events behind: the historical self-re-arming call_in
  // functors kept invoking the dead `this` forever.
  if (timers_made_) {
    sim_->disarm(refill_timer_);
    sim_->disarm(tick_timer_);
  }
}

void CreditScheduler::attach(virt::Node& node, virt::Engine& engine) {
  node_ = &node;
  engine_ = &engine;
  sim_ = &engine.simulation();
  queues_.init(node.pcpus().size(), node.vms().size(), sim_->arena());
  // Dense node-local VM indices back the per-queue sibling counters that
  // make Balance placement O(P); assigned per node-local slot at attach.
  // Slots stay stable for the node's lifetime (migration leaves tombstones
  // rather than compacting), and arrivals extend the index space through
  // vm_arrived.
  for (std::size_t i = 0; i < node.vms().size(); ++i) {
    if (node.vms()[i] == nullptr) continue;  // migration tombstone
    for (Vcpu& v : node.vms()[i]->vcpus()) {
      v.sched().rq.vm = static_cast<std::int32_t>(i);
    }
  }
  next_vm_index_ = static_cast<std::int32_t>(node.vms().size());
  rng_ = engine.platform().scheduler_rng(node);
  if (!timers_made_) {
    refill_timer_ = engine.simulation().make_timer(
        Timer<&CreditScheduler::refill_timer_fired>{this});
    tick_timer_ = engine.simulation().make_timer(
        Timer<&CreditScheduler::tick_timer_fired>{this});
    timers_made_ = true;
  }
  engine.simulation().arm_in(refill_timer_, engine.params().accounting_period);
  engine.simulation().arm_in(tick_timer_, engine.params().tick_period);
}

void CreditScheduler::vm_departing(Vm& vm) {
  for (Vcpu& v : vm.vcpus()) {
    queues_.erase(v);  // no-op for VCPUs not queued (blocked/done)
    v.sched().rq.boosted = false;
  }
}

void CreditScheduler::vm_arrived(Vm& vm) {
  const std::int32_t idx = next_vm_index_++;
  queues_.grow_vm_stride(static_cast<std::size_t>(next_vm_index_));
  for (Vcpu& v : vm.vcpus()) {
    v.sched().rq.vm = idx;
    // Placement state from the previous host is meaningless here.
    v.sched().queue = virt::PcpuId{};
    v.sched().last_pcpu = virt::PcpuId{};
  }
}

void CreditScheduler::refill_timer_fired() {
  refill_credits();
  sim_->arm_in(refill_timer_, engine_->params().accounting_period);
}

void CreditScheduler::tick_timer_fired() {
  tick();
  sim_->arm_in(tick_timer_, engine_->params().tick_period);
}

void CreditScheduler::tick() {
  for (std::size_t q = 0; q < queues_.queue_count(); ++q) {
    Pcpu& p = node_->pcpus()[q];
    if (p.idle()) continue;
    // An empty queue's class, kClasses, outranks no running VCPU.
    const int head = queues_.front_class(static_cast<int>(q));
    if (head < static_cast<int>(effective_prio(*p.current()))) {
      ATCSIM_TRACE(engine().simulation().trace(),
                   sched_event(engine().simulation().now(),
                               obs::ev::kTickPreempt, *p.current(),
                               static_cast<std::int64_t>(q)));
      engine().request_resched(p);
    }
  }
}

virt::CreditPrio CreditScheduler::effective_prio(const Vcpu& v) const {
  if (v.sched().rq.boosted) return CreditPrio::kBoost;
  return v.sched().credits >= 0.0 ? CreditPrio::kUnder : CreditPrio::kOver;
}

void CreditScheduler::enqueue(Vcpu& v) {
  const int q = static_cast<int>(
      engine().platform().pcpu(v.sched().queue).index_in_node());
  const CreditPrio prio = effective_prio(v);
  // Priority class first; within a class, larger credit balance first (with
  // a dead band so near-equal balances keep FIFO order).  A VM consuming
  // under its entitlement (large positive balance) thereby keeps its core
  // ahead of spinners that only just crossed zero.
  queues_.insert(v, q, prio, kCreditDeadBand);
  ATCSIM_TRACE(engine().simulation().trace(),
               sched_event(engine().simulation().now(), obs::ev::kEnqueue, v,
                           static_cast<std::int64_t>(prio),
                           static_cast<std::int64_t>(q)));
}

bool CreditScheduler::remove_from_queue(Vcpu& v) {
  return queues_.erase(v);
}

int CreditScheduler::siblings_in_queue(const Vcpu& v, int q) const {
  int count = queues_.queued_of_vm(q, v.sched().rq.vm);
  const Pcpu& p = node_->pcpus()[static_cast<std::size_t>(q)];
  if (p.current() != nullptr && &p.current()->vm() == &v.vm()) ++count;
  return count;
}

int CreditScheduler::place(Vcpu& v) {
  const int n = static_cast<int>(queues_.queue_count());
  if (opts_.placement == Placement::kAffinity) {
    // Xen does not balance siblings: initial placement is effectively
    // arbitrary; we draw uniformly.
    return static_cast<int>(rng_.uniform_int(0, n - 1));
  }
  // Balance Scheduling: fewest same-VM siblings, then shortest queue.  Each
  // key is O(1) off the sibling counters, so placement is O(P).
  int best = 0;
  auto key = [&](int q) {
    return std::pair<int, std::size_t>(siblings_in_queue(v, q),
                                       queues_.depth(q));
  };
  for (int q = 1; q < n; ++q) {
    if (key(q) < key(best)) best = q;
  }
  return best;
}

void CreditScheduler::vcpu_started(Vcpu& v) {
  v.sched().credits = 0.0;
  const int q = place(v);
  v.sched().queue = node_->pcpus()[static_cast<std::size_t>(q)].id();
  enqueue(v);
}

void CreditScheduler::on_wake(Vcpu& v) {
  assert(v.runnable());
  if (!v.sched().queue.valid()) {
    // First wake on this node: the VCPU migrated in while blocked, so
    // vm_arrived wiped its placement and vcpu_started never ran here.
    // Credits travelled in the bundle; only the queue needs choosing.
    const int q = place(v);
    v.sched().queue = node_->pcpus()[static_cast<std::size_t>(q)].id();
  }
  // Xen grants BOOST to wakes of VCPUs that have not over-consumed.
  v.sched().rq.boosted = v.sched().credits >= 0.0;
  rebalance_if_stacked(v);
  enqueue(v);
}

void CreditScheduler::on_block(Vcpu& /*v*/) {}

void CreditScheduler::on_deschedule(Vcpu& v) {
  assert(v.runnable());
  rebalance_if_stacked(v);
  enqueue(v);
}

void CreditScheduler::rebalance_if_stacked(Vcpu& v) {
  if (opts_.placement != Placement::kBalance) return;
  // Balance Scheduling only intervenes when the sibling-disjoint invariant
  // is violated; otherwise it preserves cache affinity like plain credit.
  const int cur = static_cast<int>(
      engine().platform().pcpu(v.sched().queue).index_in_node());
  if (siblings_in_queue(v, cur) == 0) return;
  const int q = place(v);
  v.sched().queue = node_->pcpus()[static_cast<std::size_t>(q)].id();
}

void CreditScheduler::on_exit(Vcpu& /*v*/) {}

Vcpu* CreditScheduler::pick_next(Pcpu& p) {
  const int self = p.index_in_node();

  // Xen's csched_load_balance: when the local candidate is not top
  // priority, steal a higher-priority VCPU from a sibling queue.  This is
  // what keeps weight-fairness across unevenly loaded run queues (starved
  // VCPUs accumulate credits, turn UNDER, and get pulled over).  An empty
  // queue's class is kClasses, below every class, so any sibling front
  // beats an empty own queue and an empty sibling never wins.  Each rank is
  // read off the queue's buckets, not the front VCPU's record.
  const int own_rank = queues_.front_class(self);
  if (own_rank != static_cast<int>(CreditPrio::kBoost)) {
    const int n = static_cast<int>(queues_.queue_count());
    int best_q = -1;
    int best_rank = own_rank;
    for (int off = 1; off < n; ++off) {
      const int q = (self + off) % n;
      const int rank = queues_.front_class(q);
      if (rank < best_rank) {
        best_rank = rank;
        best_q = q;
        if (rank == static_cast<int>(CreditPrio::kBoost)) break;
      }
    }
    if (best_q >= 0) {
      Vcpu* v = queues_.pop_front(best_q);
      v->sched().rq.boosted = false;
      v->sched().queue = p.id();  // migrate to the stealing queue
      ATCSIM_TRACE(engine().simulation().trace(),
                   sched_event(engine().simulation().now(), obs::ev::kSteal,
                               *v, static_cast<std::int64_t>(best_q),
                               static_cast<std::int64_t>(self)));
      return v;
    }
  }
  if (own_rank == IndexedRunQueues::kClasses) return nullptr;
  Vcpu* v = queues_.pop_front(self);
  ATCSIM_TRACE(engine().simulation().trace(),
               sched_event(engine().simulation().now(), obs::ev::kPick, *v,
                           static_cast<std::int64_t>(own_rank),
                           static_cast<std::int64_t>(self)));
  v->sched().rq.boosted = false;  // BOOST is consumed by the dispatch
  return v;
}

sim::SimTime CreditScheduler::slice_for(const Vcpu& v) const {
  return v.vm().time_slice();
}

void CreditScheduler::charge(Vcpu& v, sim::SimTime run) {
  const auto& mp = engine().params();
  const double debit =
      static_cast<double>(run) * mp.credits_per_pcpu_per_period /
      static_cast<double>(mp.accounting_period);
  v.sched().credits =
      std::max(v.sched().credits - debit, -mp.credit_clip);
  ATCSIM_TRACE(engine().simulation().trace(),
               sched_event(engine().simulation().now(), obs::ev::kCredit, v,
                           mcr(v.sched().credits), run));
}

Pcpu* CreditScheduler::wake_preemption_target(Vcpu& v) {
  if (!v.sched().rq.boosted) return nullptr;
  Pcpu& p = engine().platform().pcpu(v.sched().queue);
  if (p.idle()) return nullptr;
  if (effective_prio(*p.current()) == CreditPrio::kBoost) return nullptr;
  return &p;
}

void CreditScheduler::refill_credits() {
  const auto& mp = engine().params();
  const double pool = mp.credits_per_pcpu_per_period *
                      static_cast<double>(node_->pcpus().size());
  // Weight-proportional distribution over VMs with live VCPUs.
  double weight_sum = 0.0;
  for (const auto& vm : node_->vms()) {
    if (vm == nullptr) continue;  // migration tombstone
    for (const Vcpu& v : vm->vcpus()) {
      if (v.state() != VcpuState::kDone) {
        weight_sum += static_cast<double>(vm->weight());
        break;
      }
    }
  }
  if (weight_sum <= 0.0) return;
  double distributed = 0.0;  // actually credited (post-clamp), for tracing
  for (const auto& vm : node_->vms()) {
    if (vm == nullptr) continue;  // migration tombstone
    int live = 0;
    for (const Vcpu& v : vm->vcpus()) {
      if (v.state() != VcpuState::kDone) ++live;
    }
    if (live == 0) continue;
    const double per_vcpu = pool * static_cast<double>(vm->weight()) /
                            weight_sum / static_cast<double>(live);
    for (Vcpu& v : vm->vcpus()) {
      if (v.state() == VcpuState::kDone) continue;
      const double before = v.sched().credits;
      v.sched().credits =
          std::clamp(v.sched().credits + per_vcpu, -mp.credit_clip,
                     mp.credit_clip);
      distributed += v.sched().credits - before;
      ATCSIM_TRACE(engine().simulation().trace(),
                   sched_event(engine().simulation().now(), obs::ev::kCredit,
                               v, mcr(v.sched().credits)));
    }
  }
#if ATCSIM_TRACE_ENABLED
  if (obs::TraceSink* sink = engine().simulation().trace()) {
    obs::TraceEvent e;
    e.time = engine().simulation().now();
    e.cat = obs::TraceCat::kSched;
    e.type = obs::ev::kRefill;
    e.node = node_->id().value;
    e.a0 = mcr(distributed);
    e.a1 = mcr(pool);
    sink->emit(e);
  }
#endif
  resort_queues();
  // A VCPU requeued without a wake kicked no idle PCPU when it was filed;
  // give idle PCPUs a chance to steal it now.
  engine().kick_idle_pcpus(*node_);
}

void CreditScheduler::resort_queues() {
  // Refill may have changed any queued VCPU's class (OVER -> UNDER); re-file
  // everything stably, as the historical stable_sort-by-class did.  Between
  // refills a queued VCPU's class is invariant (credits only change
  // off-queue), which is what makes the class-bucketed representation exact.
  queues_.rebucket([this](Vcpu& v) { return effective_prio(v); });
}

}  // namespace atcsim::sched
