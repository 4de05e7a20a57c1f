// Cancellable discrete-event queue — the simulator's innermost hot path.
//
// Zero-allocation design (see DESIGN.md §7 "Event core"):
//
//  * Callbacks are stored in `InlineCallback`, a small-buffer-optimized
//    callable with a fixed 24-byte inline buffer.  Oversized or
//    throwing-move callables fail to compile (static_assert), so the hot
//    path can never fall back to the heap.
//  * Liveness is tracked by generation-tagged slab slots instead of a hash
//    set: EventId = {slot, generation}, and cancel() is two array compares —
//    no hashing, no node allocation.  The slab grows in address-stable
//    chunks of 256 slots, each holding the slots' metadata and payloads, so
//    growth appends one chunk and never doubles or copies the slab.  The
//    chunks come from the owning Simulation's Arena (simcore/arena.h).
//  * The heap is split: a 4-ary min-heap of hot 16-byte keys
//    {time, seq<<24|slot} is sifted during schedule/pop, while callback
//    payloads stay put in their slab slot.  Comparisons touch only the key
//    array, laid out so that the four children of every node fill one
//    64-byte line (half the tree depth of a binary heap, one line per
//    level), and pops use Floyd's bottom-up deletion.
//  * One drain loop (drain()) pops and runs events.  While an event runs,
//    the next head's slot is already on its way, and so is the first record
//    the head's callback touches when its callable names one
//    (InlineCallback::prefetch).
//  * Cancellation is lazy, but bounded: cancelling destroys the payload
//    immediately (captured state is released right away) and leaves only a
//    dead 16-byte key behind; when dead keys outnumber live ones the key
//    array is compacted in place.
//  * Recurring timers (`make_timer`/`arm`/`disarm`) keep their callback in a
//    permanent slot, fire in place and re-arm in place: per firing cost is
//    one key push, with no construction, no slot churn and no allocation.
//    This is what the engine's per-PCPU slice/dispatch timers use.
//
// Determinism is unchanged from the original binary-heap queue: events pop
// in (time, insertion-sequence) order, so ties in time are broken by
// schedule order and runs are byte-identical for identical inputs.
//
// This queue is INTERNAL to simcore: model components never schedule on it
// directly.  The one documented scheduling surface is sim::Simulation
// (call_in/call_at/cancel + make_timer/arm_at/arm_in/disarm); see
// simulation.h.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/arena.h"
#include "simcore/inline_callback.h"
#include "simcore/time.h"

namespace atcsim::sim {

// InlineCallback — the 32-byte SBO callable the queue stores — lives in
// simcore/inline_callback.h; it is shared with the split-driver packet
// descriptors and the VM event-channel mailboxes.

/// Opaque handle identifying a scheduled one-shot event; used only for
/// cancellation.  {slot, generation}: the generation tag makes handles
/// single-use — once the event fires or is cancelled, the slot's generation
/// moves on and stale handles compare invalid.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  bool valid() const { return generation != 0; }
  friend bool operator==(EventId a, EventId b) {
    return a.slot == b.slot && a.generation == b.generation;
  }
};

/// Handle to a recurring timer created by EventQueue::make_timer.  Timers
/// keep their callback in a permanent slab slot for the queue's lifetime and
/// are re-armed in place.
struct TimerId {
  std::uint32_t slot = kInvalid;

  static constexpr std::uint32_t kInvalid = UINT32_MAX;
  bool valid() const { return slot != kInvalid; }
};

/// Min-heap of timed callbacks (see file comment for the data layout).
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Slot chunks are taken from `arena`, which must outlive the queue.
  explicit EventQueue(Arena& arena) : arena_(&arena) {}
  /// Destroys every slot's payload; the arena keeps the chunks' storage.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` to run at absolute time `when`.  `when` must not be in
  /// the past relative to the last popped event.
  EventId schedule(SimTime when, Callback fn);

  /// Cancels a previously scheduled event.  Returns false when the event has
  /// already fired or was already cancelled.  The callback (and everything
  /// it captured) is destroyed immediately.
  bool cancel(EventId id);

  // --- recurring timers --------------------------------------------------
  //
  // A timer owns one slab slot for the queue's lifetime.  arm() schedules
  // the next firing (superseding any pending one), disarm() cancels it;
  // firing disarms automatically, and the callback may re-arm itself.
  // An armed timer counts toward size()/empty() exactly like a one-shot.

  TimerId make_timer(Callback fn);

  /// Arms (or re-arms) the timer to fire at absolute time `when`.
  void arm(TimerId t, SimTime when);

  /// Cancels the pending firing, if any.  Returns false when not armed.
  bool disarm(TimerId t);

  bool armed(TimerId t) const {
    assert(t.valid() && t.slot < slot_count_);
    return meta(t.slot).live_seq != 0;
  }

  // --- draining ----------------------------------------------------------

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_count_ == 0; }

  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event, or kTimeNever when empty.
  SimTime next_time() const;

  /// Runs events in (time, seq) order while the earliest live one is due at
  /// or before `deadline`, at most `limit` of them, and returns how many
  /// ran.  `before(time, ran)` is called once per event, after the event has
  /// left the queue (size() no longer counts it) and before its callback
  /// runs; `ran` counts the events this call ran before it.  A timer's
  /// callback runs in its slot.  A one-shot's slot is freed before its
  /// callback runs, so a callback that schedules the next one-shot reuses
  /// the slot it ran from.
  template <typename Before>
  std::uint64_t drain(SimTime deadline, std::uint64_t limit, Before&& before);

  /// Runs the earliest live event through drain() and returns its time.
  /// Precondition: !empty().
  SimTime run_next();

  // --- observability (tests/benchmarks) ----------------------------------

  /// Total keys in the heap array, live + dead.  Bounded by compaction at
  /// O(live): after every dead-producing operation, dead keys never exceed
  /// max(kCompactMin - 1, live).
  std::size_t heap_size() const { return heap_size_; }

  /// Address of heap key `i` (< heap_size()), for tests of the heap's cache
  /// layout.
  const void* heap_key_address(std::size_t i) const {
    assert(i < heap_size_);
    return heap_ + i;
  }

  /// Slab slots, live or free, one-shot or timer.  The slab never shrinks
  /// and a timer's slot is never freed, so a steady state that makes no new
  /// timers keeps this constant.
  std::size_t slot_count() const { return slot_count_; }

 private:
  /// Slot index bits packed into the low end of HeapKey::seq_slot; caps the
  /// slab at 16M concurrent events (asserted in alloc_slot) and leaves 40
  /// bits of insertion sequence (asserted in next_seq(); ~10^12 events).
  static constexpr unsigned kSlotBits = 24;

  /// Hot comparison key, 16 bytes — four per cache line, so one 4-ary
  /// find-best-child scan reads one line (see heap_).  `seq_slot` is
  /// (seq << kSlotBits) | slot: seq is unique, so comparing the packed word
  /// compares insertion sequence.
  struct HeapKey {
    SimTime time;
    std::uint64_t seq_slot;

    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & ((1u << kSlotBits) - 1));
    }
  };

  /// Per-slot bookkeeping, split from the 32-byte callback payload: the
  /// liveness checks on pop/next_time/compact hit a chunk's dense 16-byte
  /// array instead of sweeping the payloads.
  struct SlotMeta {
    /// Packed seq_slot of the live heap key pointing at this slot; 0 when
    /// none (free, cancelled, fired, or disarmed).  A heap key is dead iff
    /// meta(key.slot()).live_seq != key.seq_slot.
    std::uint64_t live_seq = 0;
    /// Bumped on every one-shot allocation; EventId carries a copy, so
    /// stale handles to reused slots fail the generation compare.
    std::uint32_t generation = 0;
    bool is_timer = false;
  };

  /// Slab chunk granularity.  Chunks are address-stable, so a timer's
  /// callback can run in place even if the callback allocates new slots
  /// (no move-out/move-back per firing), and growth appends one chunk
  /// without copying any slot.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  /// Cache-line bytes.
  static constexpr std::size_t kLineBytes = 64;

  /// kChunkSize consecutive slots: metadata and payloads in two dense
  /// arrays, one arena block.  Line-aligned, so no 32-byte payload straddles
  /// two lines.
  struct alignas(kLineBytes) Chunk {
    SlotMeta meta[kChunkSize];
    Callback payload[kChunkSize];
  };

  /// Compaction threshold: dead keys are tolerated up to the number of live
  /// keys (amortized O(1) per cancel) but at least this many, so small
  /// queues never compact.
  static constexpr std::size_t kCompactMin = 64;

  /// Keys that sit ahead of the root on its line: with the root at byte 48
  /// of a line, the children 4i+1..4i+4 of every node i start on a line
  /// boundary.
  static constexpr std::size_t kHeapPad = 3;
  /// Keys the heap array first makes room for; it doubles from there.
  static constexpr std::size_t kMinHeapKeys = 64;

  static bool earlier(const HeapKey& a, const HeapKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  bool key_dead(const HeapKey& k) const {
    return meta(k.slot()).live_seq != k.seq_slot;
  }

  SlotMeta& meta(std::uint32_t s) {
    return chunks_[s >> kChunkShift]->meta[s & (kChunkSize - 1)];
  }
  const SlotMeta& meta(std::uint32_t s) const {
    return chunks_[s >> kChunkShift]->meta[s & (kChunkSize - 1)];
  }
  Callback& payload(std::uint32_t s) {
    return chunks_[s >> kChunkShift]->payload[s & (kChunkSize - 1)];
  }

  /// Next packed seq_slot value for `slot`.
  std::uint64_t next_seq(std::uint32_t slot) {
    assert(next_seq_ < (std::uint64_t{1} << (64 - kSlotBits)) &&
           "event insertion sequence exhausted");
    return (next_seq_++ << kSlotBits) | slot;
  }

  /// Starts fetching slot `s`'s meta and payload lines.
  void prefetch_slot(std::uint32_t s) const {
    const Chunk* c = chunks_[s >> kChunkShift];
    __builtin_prefetch(&c->meta[s & (kChunkSize - 1)]);
    __builtin_prefetch(&c->payload[s & (kChunkSize - 1)]);
  }

  std::uint32_t alloc_slot();
  void grow_heap();
  void push_key(HeapKey k);
  void pop_key_top() const;
  void sift_up(std::size_t i) const;
  void sift_down(std::size_t i) const;
  void drop_dead_head() const;
  void prune_due_head() const;
  void maybe_compact();
  /// Takes the earliest live event off the queue when it is due at or
  /// before `deadline`: sets `slot` and `when`, marks the slot not pending
  /// and returns true.  drain()'s one head selection.
  bool take_head(SimTime deadline, std::uint32_t& slot, SimTime& when);

  /// The key heap, root at heap_[0].  Its storage comes from plain
  /// ::operator new, aligned by hand, with kHeapPad keys ahead of the root
  /// on the root's line (grow_heap).  `heap_size_`, `due_` and
  /// `dead_in_heap_` are mutable so const accessors (next_time) can prune
  /// cancelled heads.
  HeapKey* heap_ = nullptr;
  mutable std::size_t heap_size_ = 0;
  std::size_t heap_capacity_ = 0;
  void* heap_block_ = nullptr;  ///< what ::operator new returned
  mutable std::size_t dead_in_heap_ = 0;

  /// Due-now fast path: keys scheduled for exactly the last popped time
  /// (`frontier_`) — the engine's zero-delay dispatch kicks — skip the heap
  /// and drain FIFO.  Among equal-time events pop order is insertion-
  /// sequence order, which IS FIFO order, so determinism is unchanged; the
  /// ring is drained before the frontier can advance, because take_head()
  /// always takes the (time, seq)-earlier of the two heads.  Capacity is
  /// retained across drains (index reset, no deallocation).
  mutable std::vector<HeapKey> due_;
  mutable std::size_t due_head_ = 0;
  SimTime frontier_ = -1;  ///< time of the last popped event

  Arena* arena_;
  std::vector<Chunk*> chunks_;
  std::size_t slot_count_ = 0;   ///< slots handed out, live or free
  std::size_t timer_slots_ = 0;  ///< of which timers (never freed)
  /// Freed one-shot slots.  Its capacity covers every slot that is not a
  /// timer, reserved by schedule() as that count grows, so drain() and
  /// cancel() never allocate.
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
};

template <typename Before>
std::uint64_t EventQueue::drain(SimTime deadline, std::uint64_t limit,
                                Before&& before) {
  std::uint64_t ran = 0;
  std::uint32_t s = 0;
  SimTime when = 0;
  while (ran < limit && take_head(deadline, s, when)) {
    Chunk& c = *chunks_[s >> kChunkShift];
    const std::size_t at = s & (kChunkSize - 1);
    before(when, ran);
    if (c.meta[at].is_timer) {
      // Chunks are address-stable, so the callback runs in its slot: it may
      // make slots (a new chunk moves nothing) or re-arm its own timer
      // (which touches only the meta).
      c.payload[at]();
    } else {
      Callback fn = std::move(c.payload[at]);
      free_.push_back(s);
      fn();
    }
    ++ran;
  }
  return ran;
}

}  // namespace atcsim::sim
