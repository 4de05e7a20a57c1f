// Conservative parallel DES: the shard-local executor interface and the
// barrier-synchronous round synchronizer (DESIGN.md §10).
//
// A sharded run partitions the model into K independent shards, each with
// its own Simulation/event-queue state.  The only cross-shard interaction
// is message exchange with a known minimum delay L (the lookahead): a
// message produced at local time t is due no earlier than t + L.  That
// bound makes CMB-style rounds safe.  This synchronizer runs a *fused*
// one-barrier round to the classic conservative horizon:
//
//   repeat:
//     (coordinator, between phases)
//     m = min over shards of (local next-event time, earliest undelivered
//         inbound due); stop if m > deadline
//     h = min(m + L - 1, deadline)   (one shard: h = deadline)
//     seal the staged cross-shard messages (round_prologue), then
//     (one parallel phase, one barrier)
//     every shard: advance to h — consuming sealed inbound messages due
//     inside the horizon at their canonical points (see advance_to) — and
//     report its next local event time;
//
// Every event of the round runs at or after m, so every message it posts
// is due at or after m + L, strictly beyond h: no shard can outrun a
// message aimed at it.  All shards share h.  A group of one shard has no
// inbound channel and runs straight to the deadline.  SimTime is integer
// nanoseconds, which is what makes the `- 1` an exclusive bound.
//
// Determinism: for a fixed shard map the outcome is independent of the
// worker-thread count and of the round structure by construction.  Each
// shard's state is touched only by the (fixed) thread that owns it,
// inbound messages are delivered in canonical (due, source shard, channel
// FIFO) order up to the round horizon — a watermark, so the delivered
// sequence does not depend on how rounds batch it — and the horizon is a
// function of the shards' reported times only: no wall clock, no thread
// identity, no atomics-race anywhere in the protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simcore/time.h"

namespace atcsim::obs {
class TraceSink;
}  // namespace atcsim::obs

namespace atcsim::sim {

/// What one shard exposes to the synchronizer: an id, a cross-shard packet
/// port (deliver_inbound), horizon advance, and two time reports (next
/// local event, earliest undelivered inbound).  The model side (Scenario)
/// implements this over one Simulation + Platform + VirtualNetwork stack.
class ShardExecutor {
 public:
  virtual ~ShardExecutor() = default;

  virtual int shard_id() const = 0;

  /// Time of the earliest pending local event, or kTimeNever when drained.
  virtual SimTime next_event_time() const = 0;

  /// Earliest due time over messages already posted to this shard but not
  /// yet delivered (sitting in open fabric buffers), or kTimeNever.  The
  /// synchronizer folds this into the shard's next-event time when planning
  /// a round, so undelivered work is never invisible to the exit check.
  /// The kTimeNever default is safe but can cost extra drain rounds near
  /// the deadline; executors backed by a fabric should forward its
  /// pending_due().  Called only between phases.
  virtual SimTime pending_inbound_time() const { return kTimeNever; }

  /// Drains this shard's sealed inbound messages with due times at or
  /// before `watermark`, in canonical (due, source shard, channel FIFO)
  /// order, scheduling the carried events locally.  The synchronizer calls
  /// this only *between* rounds, for the final drain after the exit check
  /// (`watermark` = kTimeNever) — by then every queued message is due
  /// beyond the deadline, so early insertion cannot reorder it against
  /// local events the next run produces.
  virtual void deliver_inbound(SimTime watermark) = 0;

  /// Runs local events up to and including `horizon`, advancing the local
  /// clock to `horizon`; returns the number of events executed.  An
  /// executor fed by a message fabric must also consume sealed inbound
  /// messages due inside the horizon, at their canonical points: a message
  /// due at d is scheduled only once every local event at or before d has
  /// run (horizon safety guarantees it was sealed before the phase began).
  /// That makes the local event-queue interleaving at every timestamp a
  /// pure function of the simulation state — delivering the whole round's
  /// messages up front would instead tie same-timestamp ordering (and the
  /// merged trace) to the round structure.
  virtual std::uint64_t advance_to(SimTime horizon) = 0;
};

/// Runs a set of ShardExecutors under the fused round protocol above, on a
/// persistent fork-join worker pool.  Shard s is always processed by worker
/// s % threads, so shard state needs no locking; the single fork-join
/// barrier per round is the only synchronization.
class ShardGroup {
 public:
  struct Options {
    /// Cross-shard lookahead L (minimum message delay); must be positive.
    SimTime lookahead = 0;
    /// Worker threads; 0 picks min(shards, hardware_concurrency).  With 1
    /// the group runs the same protocol sequentially on the calling thread
    /// (no pool, no barriers) — the output is identical either way.
    std::size_t threads = 0;
    /// Invoked single-threaded before every delivery sweep — the hook where
    /// a staging fabric seals the messages posted during the last phase
    /// into the destinations' ready queues (ShardFabric::seal_round).
    /// Executors whose deliver_inbound reads sealed queues MUST install
    /// this, or posts never become visible.
    std::function<void()> round_prologue;
    /// When set, the coordinator emits kPdes round events (round_begin /
    /// round_horizon) into this sink, timestamped with the round's global
    /// earliest event time.
    obs::TraceSink* trace = nullptr;
  };

  /// Wall-clock accounting of the parallel phases, for speedup reporting on
  /// hosts with fewer cores than shards: `critical_s` sums the slowest
  /// shard's wall time per round (the span a perfectly parallel run cannot
  /// beat) while `serial_s` sums all shards' work.  `barrier_wait_s` is the
  /// coordinator's join-wait time (fork-join overhead + imbalance).
  /// `horizon_extensions`, `bound_recomputes` and `bound_cache_hits` are
  /// always 0: every round runs to the classic horizon and no executor
  /// keeps an output bound.  They stay because the benchmark's record
  /// still reads them.
  struct Stats {
    std::uint64_t rounds = 0;
    std::uint64_t horizon_extensions = 0;
    double critical_s = 0.0;
    double serial_s = 0.0;
    double barrier_wait_s = 0.0;
    std::uint64_t bound_recomputes = 0;
    std::uint64_t bound_cache_hits = 0;
  };

  ShardGroup(std::vector<ShardExecutor*> shards, Options options);
  ~ShardGroup();

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  /// Runs rounds until every shard's next local event (and every pending
  /// inbound message) lies beyond `deadline`, then aligns all shard clocks
  /// to `deadline`.  Returns the total number of events executed.
  /// Deadlines must be non-decreasing across calls (as with
  /// Simulation::run_until); a regressing deadline throws
  /// std::invalid_argument.
  std::uint64_t run_until(SimTime deadline);

  const Stats& stats() const { return stats_; }
  std::size_t thread_count() const { return threads_; }
  SimTime lookahead() const { return lookahead_; }

 private:
  struct Pool;

  /// One shard's fused round work — advance to the round horizon
  /// (consuming sealed inbound due inside it), report the next-event time;
  /// called from the owning worker during the parallel phase.
  void fused_phase(std::size_t s);
  /// Serial refresh of every shard's next-event time (coordinator only).
  void rescan_all();

  /// Per-shard scratch, one cache line each: written only by the shard's
  /// owner during the fused phase, read by the coordinator after the join.
  /// (Packing these as adjacent vector elements of three separate arrays —
  /// the pre-fused layout — put every shard's hot stores on shared lines.)
  struct alignas(64) ShardSlot {
    SimTime local_min = kTimeNever;  ///< next_event_time after last phase
    std::uint64_t executed = 0;
    double phase_wall = 0.0;
  };

  std::vector<ShardExecutor*> shards_;
  SimTime lookahead_;
  std::size_t threads_;
  std::function<void()> round_prologue_;
  obs::TraceSink* trace_;
  Stats stats_;
  SimTime last_deadline_ = -1;
  /// The current round's horizon: written by the coordinator between
  /// phases, read by every worker during the phase (the fork publishes it).
  SimTime horizon_ = 0;

  std::vector<ShardSlot> slots_;

  std::unique_ptr<Pool> pool_;  ///< nullptr when threads_ == 1
};

}  // namespace atcsim::sim
