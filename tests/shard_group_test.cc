// ShardGroup contract tests that need no model stack: the documented
// run_until non-decreasing-deadline rule, the worker-thread clamp, the round
// horizon, the equivalence of sequential and pooled (barrier-joined)
// rounds on bare executors, and idle workers sleeping between runs.  The
// model-level determinism properties (metrics across shard counts, merged
// traces across thread counts) live in pdes_invariance_test.cc.
#include <gtest/gtest.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "simcore/shard.h"
#include "simcore/simulation.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

/// Executor over a bare Simulation: no fabric, no cross-shard traffic.  A
/// self-rescheduling tick keeps the event queue non-empty so run_until
/// always has rounds to run.
class TickExec final : public sim::ShardExecutor {
 public:
  explicit TickExec(sim::SimTime period) : period_(period) { tick(); }
  sim::SimTime next_event_time() const override {
    return sim_.next_event_time();
  }
  void deliver_inbound(sim::SimTime /*watermark*/) override {}
  std::uint64_t advance_to(sim::SimTime horizon) override {
    advances.emplace_back(horizon, sim_.next_event_time());
    return sim_.run_until(horizon);
  }
  std::uint64_t ticks = 0;
  /// Every advance_to call: {horizon, next_event_time() on entry}.
  std::vector<std::pair<sim::SimTime, sim::SimTime>> advances;

 private:
  void tick() {
    sim_.call_in(period_, [this] {
      ++ticks;
      tick();
    });
  }
  sim::SimTime period_;
  sim::Simulation sim_;
};

struct Rig {
  explicit Rig(sim::ShardGroup::Options opts,
               std::vector<sim::SimTime> periods = {100_us, 100_us}) {
    std::vector<sim::ShardExecutor*> shards;
    for (std::size_t s = 0; s < periods.size(); ++s) {
      execs.push_back(std::make_unique<TickExec>(periods[s]));
      shards.push_back(execs.back().get());
    }
    group = std::make_unique<sim::ShardGroup>(std::move(shards), opts);
  }
  std::vector<std::unique_ptr<TickExec>> execs;
  std::unique_ptr<sim::ShardGroup> group;
};

sim::ShardGroup::Options base_opts() {
  sim::ShardGroup::Options opts;
  opts.lookahead = 60_us;
  opts.threads = 1;
  return opts;
}

TEST(ShardGroupTest, RegressingDeadlineThrows) {
  Rig rig(base_opts());
  rig.group->run_until(10_ms);
  EXPECT_THROW(rig.group->run_until(5_ms), std::invalid_argument);
  // Equal deadlines are allowed (non-decreasing, as documented) and must be
  // a no-op: everything at or before 10 ms already ran.
  EXPECT_EQ(rig.group->run_until(10_ms), 0u);
  rig.group->run_until(12_ms);  // and the group still works afterwards
  EXPECT_GT(rig.execs[0]->ticks, 100u);
}

TEST(ShardGroupTest, ThreadCountIsClampedToShardCount) {
  auto opts = base_opts();
  opts.threads = 8;  // only 2 shards: extra workers could only idle
  Rig rig(opts);
  EXPECT_EQ(rig.group->thread_count(), 2u);
}

TEST(ShardGroupTest, EveryRoundRunsToTheClassicHorizon) {
  // Offset tick periods make the two shards' next events interleave, so
  // the global minimum m moves between them from round to round.  Every
  // advance_to — the rounds and the final alignment alike — must hand both
  // shards the same horizon h = min(m + L - 1, deadline).
  const auto opts = base_opts();
  const sim::SimTime deadline = 10_ms;
  Rig rig(opts, {100_us, 130_us});
  rig.group->run_until(deadline);
  const auto& a = rig.execs[0]->advances;
  const auto& b = rig.execs[1]->advances;
  ASSERT_EQ(a.size(), b.size());
  // The alignment is one call; the rest are the rounds.
  ASSERT_EQ(a.size(), rig.group->stats().rounds + 1);
  // Each round covers less than L = 60 us past a tick: 10 ms takes many.
  EXPECT_GE(rig.group->stats().rounds, 50u);
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].first, b[r].first) << "advance " << r;
    const sim::SimTime m = std::min(a[r].second, b[r].second);
    EXPECT_EQ(a[r].first, std::min(m + opts.lookahead - 1, deadline))
        << "advance " << r;
  }
  EXPECT_EQ(a.back().first, deadline);
}

TEST(ShardGroupTest, OneShardRunsStraightToTheDeadline) {
  // No other shard can send to it, so nothing bounds its horizon below the
  // deadline.
  Rig rig(base_opts(), {100_us});
  rig.group->run_until(10_ms);
  EXPECT_EQ(rig.group->stats().rounds, 1u);
  EXPECT_EQ(rig.execs[0]->ticks, 100u);
}

TEST(ShardGroupTest, BarrierChoiceDoesNotChangeExecution) {
  // threads = 1 runs every round sequentially with no barrier; threads = 2
  // forks each round onto the pool and joins through its spinning
  // barrier.  The choice must not change what executes.
  std::uint64_t events[2] = {0, 0};
  std::uint64_t ticks[2] = {0, 0};
  const std::size_t threads[] = {1, 2};
  for (int i = 0; i < 2; ++i) {
    auto opts = base_opts();
    opts.threads = threads[i];
    Rig rig(opts);
    EXPECT_EQ(rig.group->thread_count(), threads[i]);
    events[i] = rig.group->run_until(25_ms);
    ticks[i] = rig.execs[0]->ticks + rig.execs[1]->ticks;
  }
  EXPECT_GT(events[0], 0u);
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(ticks[0], ticks[1]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

TEST(ShardGroupTest, WorkersParkBetweenRuns) {
  // Inside run_until the pool's waiters spin; once it returns the workers
  // must sleep, or an idle group would burn a core per worker.
  auto opts = base_opts();
  opts.threads = 4;
  Rig rig(opts, {100_us, 100_us, 100_us, 100_us});
  ASSERT_EQ(rig.group->thread_count(), 4u);
  rig.group->run_until(10_ms);
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(process_cpu_s() - cpu0, 0.050);
}

}  // namespace
}  // namespace atcsim
