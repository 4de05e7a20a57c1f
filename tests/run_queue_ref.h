// Reference run queues: the pre-indexed (linear-scan) structure, preserved
// verbatim from the original CreditScheduler hot path.
//
// The executable specification of sched::IndexedRunQueues:
// run_queue_property_test.cc drives both structures through identical
// randomized enqueue/remove/steal/refill sequences and asserts identical pick
// order.  It lives with the tests so no scheduler can use it.
//
// Operations intentionally keep the original complexity: erase scans every
// queue, sibling counting scans a whole queue, and insertion scans the flat
// class-sorted deque from the front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "virt/vcpu.h"

namespace atcsim::sched {

class LinearRunQueues {
 public:
  void init(std::size_t queues, std::size_t /*vms*/) {
    queues_.assign(queues, {});
  }

  /// Original flat-deque insertion: priority class first; within a class,
  /// larger credit balance first with a `dead_band` so near-equal balances
  /// keep FIFO order.  `prio_of` is evaluated on every scanned element, as
  /// the historical code evaluated effective_prio live.
  template <typename PrioFn>
  void insert(virt::Vcpu& v, int q, virt::CreditPrio prio, double dead_band,
              PrioFn&& prio_of) {
    auto& dq = queues_[static_cast<std::size_t>(q)];
    const double credits = v.sched().credits;
    auto it = dq.begin();
    while (it != dq.end()) {
      const virt::CreditPrio other = prio_of(**it);
      if (other > prio) break;
      if (other == prio && (*it)->sched().credits < credits - dead_band) {
        break;
      }
      ++it;
    }
    dq.insert(it, &v);
  }

  /// Original removal: scans all queues for the pointer.
  bool erase(virt::Vcpu& v) {
    for (auto& dq : queues_) {
      auto it = std::find(dq.begin(), dq.end(), &v);
      if (it != dq.end()) {
        dq.erase(it);
        return true;
      }
    }
    return false;
  }

  virt::Vcpu* front(int q) const {
    const auto& dq = queues_[static_cast<std::size_t>(q)];
    return dq.empty() ? nullptr : dq.front();
  }

  virt::Vcpu* pop_front(int q) {
    auto& dq = queues_[static_cast<std::size_t>(q)];
    virt::Vcpu* v = dq.front();
    dq.pop_front();
    return v;
  }

  std::size_t depth(int q) const {
    return queues_[static_cast<std::size_t>(q)].size();
  }
  std::size_t queue_count() const { return queues_.size(); }

  /// Original sibling count: scans queue `q` comparing owning VMs (the
  /// dense rq.vm index stands in for the &vcpu->vm() identity compare).
  int queued_of_vm(int q, int vm) const {
    int count = 0;
    for (const virt::Vcpu* w : queues_[static_cast<std::size_t>(q)]) {
      if (w->sched().rq.vm == vm) ++count;
    }
    return count;
  }

  /// Original post-refill resort: stable sort by priority class only.
  template <typename PrioFn>
  void rebucket(PrioFn&& prio_of) {
    for (auto& dq : queues_) {
      std::stable_sort(dq.begin(), dq.end(),
                       [&](virt::Vcpu* a, virt::Vcpu* b) {
                         return prio_of(*a) < prio_of(*b);
                       });
    }
  }

 private:
  std::vector<std::deque<virt::Vcpu*>> queues_;
};

}  // namespace atcsim::sched
