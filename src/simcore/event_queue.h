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
//    the next head's slot (or a bank timer's record) is already on its way,
//    and so is the next record the head's callback touches when its
//    callable names one (InlineCallback::prefetch, a bank's
//    prefetch_taken).
//  * Cancellation is lazy, but bounded: cancelling destroys the payload
//    immediately (captured state is released right away) and leaves only a
//    dead 16-byte key behind; when dead keys outnumber live ones the key
//    array is compacted in place.
//  * Recurring timers (`make_timer`/`arm`/`disarm`) keep their callback in a
//    permanent slot, fire in place and re-arm in place: per firing cost is
//    one key push, with no construction, no slot churn and no allocation.
//  * A timer bank (`make_timers`) is n recurring timers that share one
//    callable, which is called with the timer's index.  A bank timer is one
//    8-byte live word in a dense array, with no slot; its keys carry a tag
//    bit in the slot field.  This is what the engine's four timers per PCPU
//    use, and the bank's typed prefetch hooks let the drain loop fetch a
//    timer's records one event before it fires.
//
// Determinism is unchanged from the original binary-heap queue: events pop
// in (time, insertion-sequence) order, so ties in time are broken by
// schedule order and runs are byte-identical for identical inputs.
//
// This queue is INTERNAL to simcore: model components never schedule on it
// directly.  The one documented scheduling surface is sim::Simulation
// (call_in/call_at/cancel + make_timer/make_timers/arm_at/arm_in/disarm);
// see simulation.h.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
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

/// Handle to a recurring timer: one made by EventQueue::make_timer, which
/// keeps its callback in a permanent slab slot, or one timer of a bank made
/// by EventQueue::make_timers.  Either is re-armed in place.
struct TimerId {
  /// The slot field of the timer's heap keys: its slab slot, or kBankTag
  /// plus its index among all bank timers.
  std::uint32_t slot = kInvalid;

  static constexpr std::uint32_t kInvalid = UINT32_MAX;
  /// Marks a bank timer in a slot field; the slab has fewer slots than this.
  static constexpr std::uint32_t kBankTag = std::uint32_t{1} << 23;
  bool valid() const { return slot != kInvalid; }
};

/// Handle to the n timers of one bank made by EventQueue::make_timers.
struct TimerBank {
  std::uint32_t first = 0;  ///< timer 0's index among all bank timers
  std::uint32_t size = 0;

  TimerId operator[](std::uint32_t i) const {
    assert(i < size);
    return TimerId{TimerId::kBankTag | (first + i)};
  }
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

  /// Makes `n` timers that share `fn`, which runs as `fn(i)` when timer i
  /// of the bank fires.  `fn` may have either of two typed hooks, both
  /// const: `prefetch(i)`, called when timer i's key becomes the next head
  /// (the heap root after a pop, or the next due-ring key), about one event
  /// before it fires; and `prefetch_taken(i)`, called when the key is taken
  /// to fire, before the heap pop.  `fn` is kept in the arena, which runs
  /// no destructors, so it must be trivially destructible.  Each timer is
  /// one 8-byte live word, with no slot; the bank takes no sequence number.
  template <typename F>
  TimerBank make_timers(std::uint32_t n, F fn);

  /// Arms (or re-arms) the timer to fire at absolute time `when`.
  void arm(TimerId t, SimTime when);

  /// Cancels the pending firing, if any.  Returns false when not armed.
  bool disarm(TimerId t);

  bool armed(TimerId t) const {
    assert(names_timer(t));
    return live_word(t.slot) != 0;
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
  /// runs; `ran` counts the events this call ran before it.  A slab
  /// timer's callback runs in its slot, and a bank's callable where the
  /// arena keeps it.  A one-shot's slot is freed before its
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
  /// timers keeps this constant.  Bank timers take no slot.
  std::size_t slot_count() const { return slot_count_; }

  /// Timers of every bank made so far.
  std::size_t bank_timer_count() const { return bank_timers_; }

 private:
  /// Slot-field bits packed into the low end of HeapKey::seq_slot: the bank
  /// tag and 23 bits of slab slot or bank timer index.  That caps the slab
  /// and the banks at 8M entries each (asserted in alloc_slot and
  /// add_bank) and leaves 40 bits of insertion sequence (asserted in
  /// next_seq(); ~10^12 events).
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kBankTag = TimerId::kBankTag;
  static_assert(kBankTag == std::uint32_t{1} << (kSlotBits - 1),
                "the bank tag is the slot field's top bit");
  static constexpr std::uint32_t kIndexMask = kBankTag - 1;

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
    return live_word(k.slot()) != k.seq_slot;
  }

  /// The packed seq_slot of the live key of a slot field (a slab slot's
  /// meta, or a bank timer's word); 0 when it has none.
  std::uint64_t& live_word(std::uint32_t field) {
    return (field & kBankTag) != 0 ? bank_live_[field & kIndexMask]
                                   : meta(field).live_seq;
  }
  const std::uint64_t& live_word(std::uint32_t field) const {
    return (field & kBankTag) != 0 ? bank_live_[field & kIndexMask]
                                   : meta(field).live_seq;
  }
  /// Whether `t` is a slab timer or a bank timer of this queue.
  bool names_timer(TimerId t) const {
    if (!t.valid()) return false;
    if ((t.slot & kBankTag) != 0) return (t.slot & kIndexMask) < bank_timers_;
    return t.slot < slot_count_ && meta(t.slot).is_timer;
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

  /// One bank: its callable, which lives in the arena, and the typed
  /// functions that run it.  A null hook does nothing.
  struct Bank {
    std::uint32_t first;  ///< timer 0's index among all bank timers
    std::uint32_t size;
    void* fn;
    void (*fire)(void* fn, std::uint32_t i);
    void (*prefetch)(const void* fn, std::uint32_t i);
    void (*prefetch_taken)(const void* fn, std::uint32_t i);
  };

  /// The bank that holds bank timer `index` (one compare per bank before
  /// it; the engine makes one bank per queue).
  const Bank& bank_of(std::uint32_t index) const {
    const Bank* b = banks_.data();
    while (index - b->first >= b->size) ++b;
    return *b;
  }

  /// Stage one of the drain loop's fetches, on the key that just became
  /// the next head: a bank timer's live word and `prefetch(i)`, or a
  /// slot's lines.
  void prefetch_next(std::uint32_t field) const {
    if ((field & kBankTag) != 0) {
      const std::uint32_t index = field & kIndexMask;
      __builtin_prefetch(&bank_live_[index]);
      const Bank& b = bank_of(index);
      if (b.prefetch != nullptr) b.prefetch(b.fn, index - b.first);
    } else {
      prefetch_slot(field);
    }
  }

  /// Registers a bank whose callable is already in the arena: gives it the
  /// next `size` indices and their live words, and returns its handle.
  TimerBank add_bank(Bank b);

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
  std::vector<Bank> banks_;      ///< in index order
  /// Live words of every bank timer, by index, in one arena block; a new
  /// bank copies them into a larger block.
  std::uint64_t* bank_live_ = nullptr;
  std::uint32_t bank_timers_ = 0;
  /// Freed one-shot slots.  Its capacity covers every slot that is not a
  /// timer, reserved by schedule() as that count grows, so drain() and
  /// cancel() never allocate.
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
};

template <typename F>
TimerBank EventQueue::make_timers(std::uint32_t n, F fn) {
  static_assert(std::is_invocable_v<F&, std::uint32_t>,
                "a bank's callable runs as fn(index)");
  static_assert(std::is_trivially_destructible_v<F>,
                "a bank's callable lives in the arena, which runs no "
                "destructors");
  Bank b{};
  b.size = n;
  b.fn = arena_->create<F>(std::move(fn));
  b.fire = [](void* f, std::uint32_t i) { (*static_cast<F*>(f))(i); };
  if constexpr (requires(const F& f, std::uint32_t i) { f.prefetch(i); }) {
    b.prefetch = [](const void* f, std::uint32_t i) {
      static_cast<const F*>(f)->prefetch(i);
    };
  }
  if constexpr (requires(const F& f, std::uint32_t i) {
                  f.prefetch_taken(i);
                }) {
    b.prefetch_taken = [](const void* f, std::uint32_t i) {
      static_cast<const F*>(f)->prefetch_taken(i);
    };
  }
  return add_bank(b);
}

template <typename Before>
std::uint64_t EventQueue::drain(SimTime deadline, std::uint64_t limit,
                                Before&& before) {
  std::uint64_t ran = 0;
  std::uint32_t s = 0;
  SimTime when = 0;
  while (ran < limit && take_head(deadline, s, when)) {
    before(when, ran);
    if ((s & kBankTag) != 0) {
      // A bank's callable lives in the arena and never moves, and the call
      // reads b.fire and b.fn before it runs, so the callback may make a
      // bank (which can move banks_).
      const std::uint32_t index = s & kIndexMask;
      const Bank& b = bank_of(index);
      b.fire(b.fn, index - b.first);
    } else {
      Chunk& c = *chunks_[s >> kChunkShift];
      const std::size_t at = s & (kChunkSize - 1);
      if (c.meta[at].is_timer) {
        // Chunks are address-stable, so the callback runs in its slot: it
        // may make slots (a new chunk moves nothing) or re-arm its own
        // timer (which touches only the meta).
        c.payload[at]();
      } else {
        Callback fn = std::move(c.payload[at]);
        free_.push_back(s);
        fn();
      }
    }
    ++ran;
  }
  return ran;
}

}  // namespace atcsim::sim
