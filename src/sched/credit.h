// Xen-like credit scheduler (the "CR" baseline and the base of every other
// approach in the paper).
//
// Faithful at the level the experiments need:
//  * per-PCPU run queues ordered BOOST > UNDER > OVER, FIFO within a class;
//  * per-VCPU credits refilled every accounting period, an equal share per
//    VM with live VCPUs (every VM has Xen's default weight), and debited by
//    exact consumed CPU time (instead of Xen's 10 ms sampling ticks — same
//    steady state, less noise);
//  * BOOST on wake for VCPUs in UNDER, consumed at first dispatch;
//  * idle PCPUs steal runnable VCPUs from sibling queues.
// The slice a dispatch grants is the VM's own (Vm::time_slice, the paper's
// hypercall extension), which the engine reads; the plain CR baseline
// leaves every VM at the 30 ms default.
//
// Placement policy is a constructor option so Balance Scheduling (BS) [4]
// reuses this class: kAffinity places new VCPUs uniformly at random (Xen
// does not balance siblings), kBalance places each VCPU in a queue with the
// fewest siblings of the same VM (BS's sibling-disjoint invariant).
#pragma once

#include <vector>

#include "sched/run_queue.h"
#include "simcore/rng.h"
#include "virt/engine.h"
#include "virt/scheduler.h"

namespace atcsim::sched {

using virt::Pcpu;
using virt::Vcpu;
using virt::Vm;

enum class Placement { kAffinity, kBalance };

class CreditScheduler : public virt::Scheduler {
 public:
  struct Options {
    Placement placement = Placement::kAffinity;
  };

  /// Credit-ordered intra-class queueing dead band (DESIGN.md §8): an
  /// enqueued VCPU is filed ahead of a same-class VCPU only when its
  /// balance exceeds the other's by more than this many credits;
  /// near-equal balances keep FIFO order.  30.0 ~ one slice's debit at
  /// default parameters.
  static constexpr double kCreditDeadBand = 30.0;

  CreditScheduler() : CreditScheduler(Options{}) {}
  explicit CreditScheduler(Options opts);
  /// Disarms the refill/tick timers: a scheduler replaced at runtime must
  /// not leave periodic events invoking a dead `this`.
  ~CreditScheduler() override;

  void attach(virt::Node& node, virt::Engine& engine) override;
  void vcpu_started(Vcpu& v) override;
  void on_wake(Vcpu& v) override;
  void on_deschedule(Vcpu& v) override;
  Vcpu* pick_next(Pcpu& p) override;
  void charge(Vcpu& v, sim::SimTime run) override;
  Pcpu* wake_preemption_target(Vcpu& v) override;
  void vm_departing(Vm& vm) override;

  /// Queue length (runnable VCPUs) of PCPU index `q`, for tests/policies.
  std::size_t queue_depth(int q) const { return queues_.depth(q); }
  /// Front (next natural pick) of queue `q`; queue must be non-empty.
  Vcpu* queue_front(int q) const { return queues_.front(q); }

 protected:
  virt::Node& node() { return *node_; }
  const virt::Node& node() const { return *node_; }
  virt::Engine& engine() { return *engine_; }

  /// Inserts at the back of the VCPU's priority class.
  void enqueue(Vcpu& v);
  /// Removes `v` from whatever queue holds it; returns false if absent.
  bool remove_from_queue(Vcpu& v);
  /// Chooses the run queue for a newly started/migrated VCPU.
  int place(Vcpu& v);
  /// Number of VCPUs of v's VM already in queue q (including running),
  /// counted off the VM's own VCPUs.
  int siblings_in_queue(const Vcpu& v, int q) const;
  /// Balance placement: move `v` to a sibling-free queue when stacked.
  void rebalance_if_stacked(Vcpu& v);

  virt::CreditPrio effective_prio(const Vcpu& v) const;

 private:
  /// Callback of the refill or the tick timer: runs `Fired`.  Its prefetch
  /// hook names the scheduler, which the event queue then starts fetching
  /// while its heap pops.
  template <void (CreditScheduler::*Fired)()>
  struct Timer {
    CreditScheduler* sched;
    void operator()() const { (sched->*Fired)(); }
    void prefetch() const { sim::prefetch_lines(sched); }
  };
  /// Refills, then re-arms for the next accounting period.
  void refill_timer_fired();
  /// Ticks, then re-arms for the next tick period.
  void tick_timer_fired();

  void refill_credits();
  void resort_queues();
  /// Xen's csched_tick: preempt running VCPUs outranked by their queue head.
  void tick();

  Options opts_;
  virt::Node* node_ = nullptr;
  virt::Engine* engine_ = nullptr;
  /// Cached at attach for the destructor: the Simulation outlives the
  /// Platform, but the Engine (which ~Platform destroys before the nodes
  /// and their schedulers) does not.
  sim::Simulation* sim_ = nullptr;
  sim::Rng rng_{0};
  sim::TimerId refill_timer_{};
  sim::TimerId tick_timer_{};
  bool timers_made_ = false;
  /// Indexed run queues (index = pcpu index_in_node): intrusive per-class
  /// lists and a front-class byte per queue; see run_queue.h.
  IndexedRunQueues queues_;
};

}  // namespace atcsim::sched
