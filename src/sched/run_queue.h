// Indexed, O(1)-membership run queues for the credit scheduler family.
//
// The paper's whole effect lives in run-queue dynamics (spin latency ~
// sum of the slices of VCPUs ahead in the queue), so cluster-scale sweeps
// execute scheduler queue operations billions of times.  The original
// implementation kept one flat std::deque<Vcpu*> per PCPU and did every
// operation by linear scan: removal scanned *all* queues, Balance placement
// scanned every queue per candidate (O(P*n)), and enqueue scanned the whole
// deque for its insertion point.
//
// This container replaces the flat deques with:
//  * one intrusive doubly-linked list per (queue, priority class) bucket —
//    the per-VCPU Vcpu::RunQueueLink handle makes membership tests and
//    unlinks O(1) and allocation-free;
//  * per-queue per-VM sibling counters (dense node-local VM index), so
//    Balance Scheduling's "fewest siblings" placement key is O(1) per queue
//    instead of a queue scan;
//  * one front-class byte per queue (its best non-empty class), so the
//    steal scan and the tick read one small array instead of every queue's
//    bucket heads;
//  * priority-bucketed insertion that preserves the credit scheduler's exact
//    ordering semantics: class first (BOOST > UNDER > OVER), then larger
//    credit balance first within a class under a dead band, FIFO for
//    near-equal balances.  Bucketing is equivalence-preserving because a
//    queued VCPU's class only changes at credit refill, and every refill is
//    immediately followed by rebucket() (the old resort_queues()).
//
// The pre-rewrite linear-scan structure survives verbatim as
// sched::LinearRunQueues (tests/run_queue_ref.h); a differential property
// test drives both through randomized enqueue/remove/steal/refill sequences
// and asserts identical pick order.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>

#include "simcore/arena.h"
#include "virt/vcpu.h"

namespace atcsim::sched {

class IndexedRunQueues {
 public:
  /// Cardinality of virt::CreditPrio (bucket index = enum value).
  static constexpr int kClasses = 3;

  /// (Re)initializes for `queues` run queues over `vms` node-local VMs,
  /// with the queue heads and sibling counters in `arena` (the node's
  /// simulation arena, next to its PCPUs and VCPUs).  Every VCPU inserted
  /// later must carry a dense `sched().rq.vm` index in [0, vms).
  void init(std::size_t queues, std::size_t vms, sim::Arena& arena) {
    arena_ = &arena;
    queues_ = {arena.allocate_array<Queue>(queues), queues};
    std::uninitialized_value_construct(queues_.begin(), queues_.end());
    front_ = arena.allocate_array<std::uint8_t>(queues);
    std::fill_n(front_, queues, static_cast<std::uint8_t>(kClasses));
    vm_stride_ = vms;
    vm_queued_ = arena.allocate_array<int>(queues * vms);
    std::fill_n(vm_queued_, queues * vms, 0);
  }

  /// Widens the dense VM index space to at least `vms` (migration arrival
  /// gave a new VM the next index).  Re-lays the sibling counters out under
  /// a new stride; queue contents are untouched (links live in the VCPUs).
  /// The arena keeps the old counters, so the stride at least doubles: the
  /// abandoned arrays never add up to more than the live one.
  void grow_vm_stride(std::size_t vms) {
    if (vms <= vm_stride_) return;
    const std::size_t stride = std::max(vms, 2 * vm_stride_);
    int* wide = arena_->allocate_array<int>(queues_.size() * stride);
    std::fill_n(wide, queues_.size() * stride, 0);
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      for (std::size_t vm = 0; vm < vm_stride_; ++vm) {
        wide[q * stride + vm] = vm_queued_[q * vm_stride_ + vm];
      }
    }
    vm_queued_ = wide;
    vm_stride_ = stride;
  }

  /// Inserts `v` into queue `q` under class `cls`, before the first element
  /// of the same class whose credit balance is more than `dead_band` below
  /// `v`'s (credit-ordered with FIFO inside the dead band) — byte-identical
  /// ordering to the historical flat-deque scan.
  void insert(virt::Vcpu& v, int q, virt::CreditPrio cls, double dead_band) {
    auto& link = v.sched().rq;
    assert(link.queue < 0 && "VCPU already on a run queue");
    assert(link.vm >= 0 && static_cast<std::size_t>(link.vm) < vm_stride_);
    assert(q >= 0 && q <= INT16_MAX && "run-queue index exceeds the link");
    Queue& rq = queues_[qi(q)];
    Bucket& b = rq.buckets[static_cast<std::size_t>(cls)];
    const double credits = v.sched().credits;
    virt::Vcpu* pos = b.head;
    while (pos != nullptr &&
           !(pos->sched().credits < credits - dead_band)) {
      pos = pos->sched().rq.next;
    }
    link.queue = static_cast<std::int16_t>(q);
    link.cls = static_cast<std::int8_t>(cls);
    link_before(b, v, pos);
    ++rq.size;
    front_[qi(q)] = std::min(front_[qi(q)], static_cast<std::uint8_t>(cls));
    ++vm_queued_[qi(q) * vm_stride_ + static_cast<std::size_t>(link.vm)];
  }

  /// Unlinks `v` from whatever queue holds it; false when not queued.  O(1).
  bool erase(virt::Vcpu& v) {
    auto& link = v.sched().rq;
    if (link.queue < 0) return false;
    Queue& rq = queues_[qi(link.queue)];
    Bucket& b = rq.buckets[static_cast<std::size_t>(link.cls)];
    unlink(b, v);
    --rq.size;
    if (b.head == nullptr && link.cls == front_[qi(link.queue)]) {
      front_[qi(link.queue)] = best_class(rq);
    }
    --vm_queued_[qi(link.queue) * vm_stride_ +
                 static_cast<std::size_t>(link.vm)];
    link.queue = -1;
    link.cls = -1;
    return true;
  }

  /// Head of the best non-empty class bucket of queue `q` (= the front the
  /// flat class-sorted deque used to expose); nullptr when empty.
  virt::Vcpu* front(int q) const {
    const int c = front_class(q);
    return c == kClasses ? nullptr : queues_[qi(q)].buckets[qi(c)].head;
  }

  /// Class (CreditPrio value) of front(q): the best non-empty bucket, or
  /// kClasses when the queue is empty.  Reads one byte, no VCPU record and
  /// no bucket head, and equals the front's current class because a queued
  /// VCPU's class changes only at refill, which rebucket() follows (see the
  /// file comment).
  int front_class(int q) const { return front_[qi(q)]; }

  /// Removes and returns front(q); queue must be non-empty.
  virt::Vcpu* pop_front(int q) {
    virt::Vcpu* v = front(q);
    assert(v != nullptr && "pop_front on an empty run queue");
    erase(*v);
    return v;
  }

  bool contains(const virt::Vcpu& v) const { return v.sched().rq.queue >= 0; }

  std::size_t depth(int q) const { return queues_[qi(q)].size; }
  std::size_t queue_count() const { return queues_.size(); }

  /// Queued (not running) VCPUs of dense node-local VM `vm` in queue `q`.
  int queued_of_vm(int q, int vm) const {
    return vm_queued_[qi(q) * vm_stride_ + static_cast<std::size_t>(vm)];
  }

  /// Stable re-classification after a credit refill: walks each queue in
  /// its current flat order (bucket-major) and re-files every element under
  /// `prio(vcpu)`.  Appending in traversal order preserves the relative
  /// order of same-class elements, i.e. this is exactly the historical
  /// std::stable_sort by priority class over the flat deque.
  template <typename PrioFn>
  void rebucket(PrioFn&& prio) {
    for (std::size_t q = 0; q < queues_.size(); ++q) {
      Queue& rq = queues_[q];
      virt::Vcpu* chain = nullptr;
      virt::Vcpu** tail = &chain;
      for (Bucket& b : rq.buckets) {
        if (b.head == nullptr) continue;
        *tail = b.head;
        tail = &b.tail->sched().rq.next;
        b.head = b.tail = nullptr;
      }
      *tail = nullptr;
      for (virt::Vcpu* v = chain; v != nullptr;) {
        virt::Vcpu* next = v->sched().rq.next;
        const auto cls = static_cast<std::size_t>(prio(*v));
        v->sched().rq.cls = static_cast<std::int8_t>(cls);
        link_before(rq.buckets[cls], *v, nullptr);  // append, stable
        v = next;
      }
      front_[q] = best_class(rq);
    }
  }

 private:
  struct Bucket {
    virt::Vcpu* head = nullptr;
    virt::Vcpu* tail = nullptr;
  };
  struct Queue {
    std::array<Bucket, kClasses> buckets{};
    std::size_t size = 0;
  };
  static_assert(std::is_trivially_destructible_v<Queue>,
                "queue heads live in the arena, which runs no destructors");

  static std::size_t qi(int q) { return static_cast<std::size_t>(q); }

  /// The best non-empty class of `rq`, or kClasses when it is empty.
  static std::uint8_t best_class(const Queue& rq) {
    std::uint8_t c = 0;
    while (c < kClasses && rq.buckets[c].head == nullptr) ++c;
    return c;
  }

  /// Links `v` immediately before `pos` in `b` (nullptr = append at tail).
  static void link_before(Bucket& b, virt::Vcpu& v, virt::Vcpu* pos) {
    auto& link = v.sched().rq;
    link.next = pos;
    if (pos != nullptr) {
      link.prev = pos->sched().rq.prev;
      pos->sched().rq.prev = &v;
    } else {
      link.prev = b.tail;
      b.tail = &v;
    }
    if (link.prev != nullptr) {
      link.prev->sched().rq.next = &v;
    } else {
      b.head = &v;
    }
  }

  static void unlink(Bucket& b, virt::Vcpu& v) {
    auto& link = v.sched().rq;
    if (link.prev != nullptr) {
      link.prev->sched().rq.next = link.next;
    } else {
      assert(b.head == &v);
      b.head = link.next;
    }
    if (link.next != nullptr) {
      link.next->sched().rq.prev = link.prev;
    } else {
      assert(b.tail == &v);
      b.tail = link.prev;
    }
    link.prev = link.next = nullptr;
  }

  // In the arena; see init().
  sim::Arena* arena_ = nullptr;
  std::span<Queue> queues_;
  /// [queue]: front_class(queue), kept by insert, erase and rebucket.
  std::uint8_t* front_ = nullptr;
  int* vm_queued_ = nullptr;  ///< [queue * vm_stride_ + local_vm]
  std::size_t vm_stride_ = 0;
};

}  // namespace atcsim::sched
