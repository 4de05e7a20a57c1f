#include "simcore/event_queue.h"

#include <algorithm>
#include <memory>
#include <new>

namespace atcsim::sim {

EventQueue::~EventQueue() {
  for (Chunk* c : chunks_) std::destroy_at(c);
  ::operator delete(heap_block_);
}

// ------------------------------------------------------------ 4-ary heap --
//
// Children of i live at 4i+1..4i+4, parent at (i-1)/4.  The root sits at
// byte 48 of a line, so key 4i+1 starts on a line boundary and a node's four
// 16-byte children fill exactly one line; the tree is half as deep as a
// binary heap, which is what makes sift_down cheap on large queues.

void EventQueue::grow_heap() {
  // Plain ::operator new, aligned by hand as Arena chunks are, so an
  // operator-new hook sees every growth (the std::align_val_t overloads
  // would bypass it).
  const std::size_t capacity = std::max(kMinHeapKeys, 2 * heap_capacity_);
  void* block = ::operator new((kHeapPad + capacity) * sizeof(HeapKey) +
                               kLineBytes - 1);
  const std::uintptr_t line =
      (reinterpret_cast<std::uintptr_t>(block) + kLineBytes - 1) &
      ~static_cast<std::uintptr_t>(kLineBytes - 1);
  HeapKey* keys = reinterpret_cast<HeapKey*>(line) + kHeapPad;
  std::copy_n(heap_, heap_size_, keys);
  ::operator delete(heap_block_);
  heap_block_ = block;
  heap_ = keys;
  heap_capacity_ = capacity;
}

void EventQueue::sift_up(std::size_t i) const {
  const HeapKey k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::sift_down(std::size_t i) const {
  const std::size_t n = heap_size_;
  const HeapKey k = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

void EventQueue::push_key(HeapKey k) {
  if (heap_size_ == heap_capacity_) grow_heap();
  const std::size_t i = heap_size_++;
  heap_[i] = k;
  sift_up(i);
}

void EventQueue::pop_key_top() const {
  // Floyd's bottom-up deletion: the displaced last leaf almost always
  // belongs back near the bottom, so sinking a hole along the min-child
  // path (3 compares per level, no compare against the moved key) and then
  // sifting the leaf up from there beats the textbook move-last-to-root
  // sift_down, which pays 4 compares per level for the full depth.
  const std::size_t n = --heap_size_;
  const HeapKey last = heap_[n];
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  sift_up(i);
}

void EventQueue::drop_dead_head() const {
  while (heap_size_ != 0 && key_dead(heap_[0])) {
    pop_key_top();
    --dead_in_heap_;
  }
}

void EventQueue::prune_due_head() const {
  while (due_head_ < due_.size() && key_dead(due_[due_head_])) {
    ++due_head_;
    --dead_in_heap_;
  }
  if (due_head_ != 0 && due_head_ == due_.size()) {
    due_.clear();  // retains capacity; the ring stays allocation-free
    due_head_ = 0;
  }
}

void EventQueue::maybe_compact() {
  if (dead_in_heap_ < kCompactMin || dead_in_heap_ <= live_count_) return;
  // In-place filter of dead keys, then a bottom-up heapify.  O(heap size),
  // amortized O(1) per cancel because a compaction halves the array.  Only
  // the heap is swept: dead keys can also sit in the due ring, so subtract
  // exactly what was removed rather than zeroing the counter.
  std::size_t w = 0;
  for (std::size_t r = 0; r < heap_size_; ++r) {
    if (!key_dead(heap_[r])) heap_[w++] = heap_[r];
  }
  dead_in_heap_ -= heap_size_ - w;
  heap_size_ = w;
  if (w > 1) {
    for (std::size_t i = (w - 2) / 4 + 1; i-- > 0;) sift_down(i);
  }
}

// ----------------------------------------------------------------- slab ---

std::uint32_t EventQueue::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t s = free_.back();
    free_.pop_back();
    return s;
  }
  assert(slot_count_ < (std::size_t{1} << kSlotBits) &&
         "event slab exceeded the packed-key slot capacity");
  if (slot_count_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(arena_->create<Chunk>());
  }
  return static_cast<std::uint32_t>(slot_count_++);
}

// ------------------------------------------------------------- one-shots --

EventId EventQueue::schedule(SimTime when, Callback fn) {
  assert(fn && "scheduled callback must be callable");
  const std::uint32_t s = alloc_slot();
  // Only one-shot slots are ever freed, so the free list needs room for
  // every slot that is not a timer, and this is the one place that count
  // grows.  Reserving here keeps drain() and cancel() allocation-free, and
  // doubling keeps it amortized O(1).
  const std::size_t freeable = slot_count_ - timer_slots_;
  if (free_.capacity() < freeable) {
    free_.reserve(std::max(freeable, free_.capacity() * 2));
  }
  SlotMeta& slot = meta(s);
  payload(s) = std::move(fn);
  slot.is_timer = false;
  if (++slot.generation == 0) ++slot.generation;  // 0 is the invalid tag
  const std::uint64_t seq = next_seq(s);
  slot.live_seq = seq;
  // Due-now fast path: a key for the timestamp currently being drained can
  // never be reordered ahead of anything in the heap (same time, later seq),
  // so it skips the heap and drains FIFO from the due ring.
  if (when == frontier_) {
    due_.push_back(HeapKey{when, seq});
  } else {
    push_key(HeapKey{when, seq});
  }
  ++live_count_;
  return EventId{s, slot.generation};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot >= slot_count_) return false;
  SlotMeta& slot = meta(id.slot);
  if (slot.is_timer || slot.generation != id.generation ||
      slot.live_seq == 0) {
    return false;  // already fired, already cancelled, or slot reused
  }
  slot.live_seq = 0;
  payload(id.slot).reset();  // release captured state now, not at pop time
  free_.push_back(id.slot);
  --live_count_;
  ++dead_in_heap_;
  maybe_compact();
  return true;
}

// --------------------------------------------------------------- timers ---

TimerId EventQueue::make_timer(Callback fn) {
  assert(fn && "timer callback must be callable");
  const std::uint32_t s = alloc_slot();
  ++timer_slots_;
  SlotMeta& slot = meta(s);
  payload(s) = std::move(fn);
  slot.is_timer = true;
  slot.live_seq = 0;
  return TimerId{s};
}

void EventQueue::arm(TimerId t, SimTime when) {
  assert(t.valid() && t.slot < slot_count_ && meta(t.slot).is_timer);
  SlotMeta& slot = meta(t.slot);
  if (slot.live_seq != 0) {
    // Supersede the pending firing; its key dies in place.
    --live_count_;
    ++dead_in_heap_;
  }
  const std::uint64_t seq = next_seq(t.slot);
  slot.live_seq = seq;
  if (when == frontier_) {
    // Zero-delay re-arm (the engine's dispatch kicks): due ring, not heap.
    due_.push_back(HeapKey{when, seq});
  } else {
    push_key(HeapKey{when, seq});
  }
  ++live_count_;
  maybe_compact();
}

bool EventQueue::disarm(TimerId t) {
  assert(t.valid() && t.slot < slot_count_ && meta(t.slot).is_timer);
  SlotMeta& slot = meta(t.slot);
  if (slot.live_seq == 0) return false;  // not armed (or just fired)
  slot.live_seq = 0;
  --live_count_;
  ++dead_in_heap_;
  maybe_compact();
  return true;
}

// --------------------------------------------------------------- drain ----

SimTime EventQueue::next_time() const {
  prune_due_head();
  drop_dead_head();
  // Due-ring keys are all at frontier_, which no heap key can precede (the
  // past is not schedulable), so a non-empty due ring decides the time.
  if (due_head_ < due_.size()) return due_[due_head_].time;
  return heap_size_ == 0 ? kTimeNever : heap_[0].time;
}

bool EventQueue::take_head(SimTime deadline, std::uint32_t& slot,
                           SimTime& when) {
  prune_due_head();
  drop_dead_head();
  const bool from_due =
      due_head_ < due_.size() &&
      (heap_size_ == 0 || earlier(due_[due_head_], heap_[0]));
  if (!from_due && heap_size_ == 0) return false;
  const HeapKey k = from_due ? due_[due_head_] : heap_[0];
  if (k.time > deadline) return false;
  const std::uint32_t s = k.slot();
  // The head's slot was fetched one event ago, as the runner-up.  Start on
  // the record its callback touches first, then pop, then start on the new
  // root's slot: both fetches overlap the descent and the callback.
  payload(s).prefetch();
  if (from_due) {
    if (++due_head_ == due_.size()) {
      due_.clear();  // retains capacity; the ring stays allocation-free
      due_head_ = 0;
    }
  } else {
    pop_key_top();
    if (heap_size_ != 0) prefetch_slot(heap_[0].slot());
  }
  frontier_ = k.time;
  meta(s).live_seq = 0;
  --live_count_;
  slot = s;
  when = k.time;
  return true;
}

SimTime EventQueue::run_next() {
  assert(!empty() && "run_next() on an empty EventQueue");
  SimTime ran_at = kTimeNever;
  drain(kTimeNever, 1, [&ran_at](SimTime when, std::uint64_t /*ran*/) {
    ran_at = when;
  });
  return ran_at;
}

}  // namespace atcsim::sim
