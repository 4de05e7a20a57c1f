#include "simcore/shard.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"
#include "simcore/parallel.h"

namespace atcsim::sim {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// kTimeNever-absorbing addition (both operands non-negative).
SimTime sat_add(SimTime a, SimTime b) {
  if (a >= kTimeNever - b) return kTimeNever;
  return a + b;
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

#if ATCSIM_TRACE_ENABLED
obs::TraceEvent pdes_event(SimTime time, std::uint8_t type, std::int64_t a0,
                           std::int64_t a1) {
  obs::TraceEvent e;
  e.time = time;
  e.cat = obs::TraceCat::kPdes;
  e.type = type;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}
#endif

}  // namespace

/// Persistent fork-join pool.  The coordinator publishes an epoch; each
/// worker processes the shards it owns (s % threads) for the current fused
/// phase and reports back.  All shard-state handoff rides on the epoch
/// publication (release) and the join (acquire), so the shard work itself
/// is lock-free and race-free (each shard has exactly one owner).
///
/// The barrier is an epoch counter and an outstanding-helper count, both
/// std::atomic.  Fork bumps the epoch (release) and notifies; join waits
/// for the pending count to reach zero.  While a run_until is in progress
/// no waiter sleeps: workers on the epoch and the coordinator on the
/// pending count spin with a CPU relax hint and yield every kYieldEvery
/// spins, so a waiter that shares a core with the thread it waits for
/// lets it run.  A parked waiter needs a futex wake, and on a shared host
/// a vCPU wake, before it runs again, which turned a round's wait of
/// microseconds into a scheduling delay (DESIGN.md §10 "Barrier waits").
/// Between run_until calls workers park in std::atomic::wait on the epoch.
struct ShardGroup::Pool {
  explicit Pool(ShardGroup& group) : group_(group) {
    // Workers 1..threads-1; the coordinator thread doubles as worker 0.
    for (std::size_t w = 1; w < group_.threads_; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  ~Pool() {
    shutdown_.store(true, std::memory_order_relaxed);
    epoch_.v.fetch_add(1, std::memory_order_release);
    epoch_.v.notify_all();
    for (auto& t : workers_) t.join();
  }

  /// Marks the span of one run_until: workers spin between its phases and
  /// park once it ends.
  void set_running(bool running) {
    running_.store(running, std::memory_order_relaxed);
  }

  /// Runs the fused phase on every shard and joins; accounts the
  /// coordinator's join wait into the group's stats.
  void run_phase() {
    pending_.v.store(workers_.size(), std::memory_order_relaxed);
    epoch_.v.fetch_add(1, std::memory_order_release);
    epoch_.v.notify_all();
    for (std::size_t s = 0; s < group_.shards_.size();
         s += group_.threads_) {
      group_.fused_phase(s);
    }
    const auto t0 = std::chrono::steady_clock::now();
    int spins = 0;
    while (pending_.v.load(std::memory_order_acquire) != 0) spin(spins);
    group_.stats_.barrier_wait_s += seconds_since(t0);
  }

 private:
  void worker_loop(std::size_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t e;
      int spins = 0;
      while ((e = epoch_.v.load(std::memory_order_acquire)) == seen) {
        if (running_.load(std::memory_order_relaxed)) {
          spin(spins);
        } else {
          epoch_.v.wait(seen, std::memory_order_acquire);
        }
      }
      seen = e;
      if (shutdown_.load(std::memory_order_relaxed)) return;
      for (std::size_t s = w; s < group_.shards_.size();
           s += group_.threads_) {
        group_.fused_phase(s);
      }
      pending_.v.fetch_sub(1, std::memory_order_release);
    }
  }

  /// One turn of a waiter inside a run.
  static void spin(int& spins) {
    if (++spins == kYieldEvery) {
      spins = 0;
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }

  static constexpr int kYieldEvery = 256;

  ShardGroup& group_;
  std::vector<std::thread> workers_;

  // Epoch and pending on separate cache lines so the workers' completion
  // stores never collide with the fork publication.
  struct alignas(64) AlignedU64 {
    std::atomic<std::uint64_t> v{0};
  };
  struct alignas(64) AlignedSize {
    std::atomic<std::size_t> v{0};
  };
  AlignedU64 epoch_;
  AlignedSize pending_;
  std::atomic<bool> running_{false};
  std::atomic<bool> shutdown_{false};
};

ShardGroup::ShardGroup(std::vector<ShardExecutor*> shards, Options options)
    : shards_(std::move(shards)),
      lookahead_(options.lookahead),
      round_prologue_(std::move(options.round_prologue)),
      trace_(options.trace) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardGroup needs at least one shard");
  }
  if (lookahead_ <= 0) {
    throw std::invalid_argument(
        "ShardGroup lookahead must be positive; cross-shard messages must "
        "carry a minimum delay");
  }
  threads_ = resolve_threads(options.threads, shards_.size());
  slots_.assign(shards_.size(), ShardSlot{});
  if (threads_ > 1) pool_ = std::make_unique<Pool>(*this);
}

ShardGroup::~ShardGroup() = default;

std::size_t ShardGroup::resolve_threads(std::size_t threads,
                                        std::size_t shards) {
  if (threads == 0) threads = available_cpus();
  return std::min(threads, shards);
}

void ShardGroup::fused_phase(std::size_t s) {
  ShardExecutor* shard = shards_[s];
  ShardSlot& slot = slots_[s];
  const auto t0 = std::chrono::steady_clock::now();
  slot.executed += shard->advance_to(horizon_);
  slot.local_min = shard->next_event_time();
  slot.phase_wall = seconds_since(t0);
}

void ShardGroup::rescan_all() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    slots_[s].local_min = shards_[s]->next_event_time();
  }
}

std::uint64_t ShardGroup::run_until(SimTime deadline) {
  if (deadline < last_deadline_) {
    throw std::invalid_argument(
        "ShardGroup::run_until deadlines must be non-decreasing");
  }
  last_deadline_ = deadline;
  if (pool_ != nullptr) pool_->set_running(true);
  std::uint64_t before = 0;
  for (const auto& slot : slots_) before += slot.executed;
  // The previous call's alignment moved every clock past the last reported
  // times; refresh them before planning the first round.
  rescan_all();

  auto run_fused = [this] {
    if (pool_ != nullptr) {
      pool_->run_phase();
    } else {
      for (std::size_t s = 0; s < shards_.size(); ++s) fused_phase(s);
    }
  };

  for (;;) {
    // Round plan (coordinator, between phases): fold each shard's earliest
    // undelivered inbound due into its next-event time.
    SimTime m = kTimeNever;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      m = std::min({m, slots_[s].local_min, shards_[s]->pending_inbound_time()});
    }

    if (m > deadline) {
      // Nothing at or before the deadline — but executors without a
      // pending-inbound bound may still hide undelivered posts.  Drain the
      // fabric serially and re-check; delivered dues past the deadline
      // surface as future events, dues inside it re-enter the loop.
      // Watermark kTimeNever is canonical-order safe here: every packet
      // still queued is due beyond the deadline (a due at or before it
      // would have kept m <= deadline), hence beyond every watermark any
      // shard has drained so far.
      if (round_prologue_) round_prologue_();
      for (ShardExecutor* shard : shards_) shard->deliver_inbound(kTimeNever);
      rescan_all();
      SimTime m2 = kTimeNever;
      for (const auto& slot : slots_) m2 = std::min(m2, slot.local_min);
      if (m2 > deadline) break;
      continue;
    }

    // Classic CMB bound: every event of this round runs at or after m, so
    // every message it posts is due at or after m + lookahead, strictly
    // beyond the horizon.  One shard has no inbound channel at all.
    horizon_ = shards_.size() == 1
                   ? deadline
                   : std::min(sat_add(m, lookahead_ - 1), deadline);
    ATCSIM_TRACE(trace_,
                 pdes_event(m, obs::ev::kRoundBegin,
                            static_cast<std::int64_t>(stats_.rounds),
                            static_cast<std::int64_t>(shards_.size())));
    ATCSIM_TRACE(trace_,
                 pdes_event(m, obs::ev::kRoundHorizon, horizon_, horizon_));

    if (round_prologue_) round_prologue_();
    run_fused();

    ++stats_.rounds;
    double worst = 0.0;
    for (const auto& slot : slots_) {
      stats_.serial_s += slot.phase_wall;
      worst = std::max(worst, slot.phase_wall);
    }
    stats_.critical_s += worst;
  }

  // No shard has events at or before the deadline; align all clocks so the
  // group's notion of "now" is well defined between calls.
  std::uint64_t after = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    slots_[s].executed += shards_[s]->advance_to(deadline);
    after += slots_[s].executed;
  }
  if (pool_ != nullptr) pool_->set_running(false);
  return after - before;
}

}  // namespace atcsim::sim
