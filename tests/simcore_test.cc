// Unit tests for the simulation kernel: event queue ordering/cancellation,
// simulation clock semantics, RNG determinism, and statistics.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/parallel.h"
#include "simcore/rng.h"
#include "simcore/shard.h"
#include "simcore/simulation.h"
#include "simcore/stats.h"
#include "simcore/time.h"

namespace atcsim::sim {
namespace {

using namespace time_literals;

TEST(TimeTest, Literals) {
  EXPECT_EQ(1_us, 1000);
  EXPECT_EQ(1_ms, 1'000'000);
  EXPECT_EQ(1_s, 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_millis(30_ms), 30.0);
  EXPECT_EQ(from_millis(0.3), 300'000);
  EXPECT_EQ(from_micros(2.5), 2'500);
}

TEST(TimeTest, Format) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(30_ms), "30ms");
  EXPECT_EQ(format_time(kTimeNever), "never");
  EXPECT_EQ(format_time(std::numeric_limits<SimTime>::min()), "-9.223e+09s");
}

TEST(EventQueueTest, OrdersByTime) {
  Arena arena;
  EventQueue q(arena);
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  Arena arena;
  EventQueue q(arena);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  Arena arena;
  EventQueue q(arena);
  bool ran = false;
  EventId id = q.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.cancel(id));  // double-cancel
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  Arena arena;
  EventQueue q(arena);
  EventId id = q.schedule(10, [] {});
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  Arena arena;
  EventQueue q(arena);
  EventId early = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, InvalidIdCancelIsNoop) {
  Arena arena;
  EventQueue q(arena);
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueTest, StaleIdOnReusedSlotDoesNotCancelNewEvent) {
  Arena arena;
  EventQueue q(arena);
  // Fire A; its slab slot goes back on the free list and B reuses it.  The
  // stale handle to A must fail the generation compare, not kill B.
  EventId a = q.schedule(10, [] {});
  q.run_next();
  bool b_ran = false;
  EventId b = q.schedule(20, [&] { b_ran = true; });
  EXPECT_EQ(a.slot, b.slot) << "test premise: slot is reused LIFO";
  EXPECT_NE(a.generation, b.generation);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(b_ran);
}

TEST(EventQueueTest, CancelDestroysCapturedStateImmediately) {
  Arena arena;
  EventQueue q(arena);
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  EventId id = q.schedule(10, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired()) << "callback keeps the capture alive";
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(watch.expired())
      << "cancel must release captured state immediately, not at pop";
}

TEST(EventQueueTest, DeadEntriesAreCompactedBounded) {
  Arena arena;
  EventQueue q(arena);
  // Cancel-heavy churn with one persistent live event: the heap may retain
  // dead keys only up to the compaction bound, never proportional to the
  // total number of cancels.
  q.schedule(1'000'000'000, [] {});
  for (int i = 0; i < 10'000; ++i) {
    EventId id = q.schedule(1000 + i, [] {});
    q.cancel(id);
    EXPECT_LE(q.heap_size(), 200u)
        << "dead keys accumulate without bound (i=" << i << ")";
  }
  EXPECT_EQ(q.size(), 1u);
}

// The heap keeps the four children of every node on one 64-byte line
// (DESIGN.md §7 "Data layout"): after growth, pops, a compaction and a
// regrowth into a new block.
TEST(EventQueueTest, ChildrenOfEveryNodeShareOneCacheLine) {
  Arena arena;
  EventQueue q(arena);
  auto line = [&q](std::size_t i) {
    return reinterpret_cast<std::uintptr_t>(q.heap_key_address(i)) / 64;
  };
  auto expect_children_share_lines = [&](const char* step) {
    const std::size_t n = q.heap_size();
    for (std::size_t first = 1; first < n; first += 4) {
      EXPECT_EQ(
          reinterpret_cast<std::uintptr_t>(q.heap_key_address(first)) % 64,
          0u)
          << step << ": children from key " << first;
      EXPECT_EQ(line(first), line(std::min(first + 3, n - 1)))
          << step << ": children from key " << first;
    }
  };
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(1 + (i * 7919) % 5000, [] {}));
  }
  expect_children_share_lines("grown");
  for (int i = 0; i < 300; ++i) q.run_next();
  expect_children_share_lines("popped");
  const std::size_t before_compaction = q.heap_size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 8 != 0) q.cancel(ids[i]);
  }
  EXPECT_LT(q.heap_size(), before_compaction) << "test premise: compacted";
  expect_children_share_lines("compacted");
  for (int i = 0; i < 5000; ++i) q.schedule(6000 + i, [] {});
  expect_children_share_lines("regrown");
}

TEST(EventQueueTest, TimerArmsFiresAndRearms) {
  Arena arena;
  EventQueue q(arena);
  TimerId t;
  std::vector<bool> armed_while_firing;
  t = q.make_timer([&] { armed_while_firing.push_back(q.armed(t)); });
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(q.armed(t));
  EXPECT_TRUE(q.empty()) << "unarmed timer is not a live event";

  q.arm(t, 10);
  EXPECT_TRUE(q.armed(t));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(armed_while_firing, std::vector<bool>{false})
      << "firing disarms before the callback runs";
  EXPECT_TRUE(q.empty());

  q.arm(t, 20);  // re-arm in place after firing
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(armed_while_firing.size(), 2u);
}

TEST(EventQueueTest, TimerRearmSupersedesPendingFiring) {
  Arena arena;
  EventQueue q(arena);
  int fired = 0;
  TimerId t = q.make_timer([&] { ++fired; });
  q.arm(t, 10);
  q.arm(t, 30);  // supersedes the t=10 firing
  q.schedule(20, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 20) << "superseded firing must be dead";
  EXPECT_EQ(q.run_next(), 20);  // the one-shot
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.run_next(), 30);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, TimerDisarmCancelsPendingFiring) {
  Arena arena;
  EventQueue q(arena);
  int fired = 0;
  TimerId t = q.make_timer([&] { ++fired; });
  EXPECT_FALSE(q.disarm(t)) << "disarming an unarmed timer is a no-op";
  q.arm(t, 10);
  EXPECT_TRUE(q.disarm(t));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.disarm(t)) << "double disarm";
  EXPECT_EQ(q.next_time(), kTimeNever);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, TimerCallbackMayCreateSlotsWhileFiring) {
  // Firing a timer whose callback schedules new events grows the slab while
  // the callback runs in its slot; chunks are address-stable, so the
  // running payload never moves.
  Arena arena;
  EventQueue q(arena);
  std::vector<TimerId> timers;
  int fired = 0;
  TimerId t = q.make_timer([&] {
    for (int i = 0; i < 64; ++i) {
      q.schedule(1000 + i, [] {});  // forces slab growth mid-invoke
    }
    ++fired;
  });
  q.arm(t, 1);
  q.run_next();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.size(), 64u);
  q.arm(t, 2);  // the payload is still in its slot
  EXPECT_EQ(q.run_next(), 2);
  EXPECT_EQ(fired, 2);
}

// --- timer banks: the slab-timer semantics above, on bank timers ---------

/// A bank's callable that logs which timer fired and which the queue
/// fetched ahead: `prefetch(i)` when timer i's key became the next head,
/// `prefetch_taken(i)` when it was taken to fire.
struct BankLog {
  std::vector<std::uint32_t> fired;
  std::vector<std::uint32_t> next;
  std::vector<std::uint32_t> taken;
};
struct LoggingBank {
  BankLog* log;
  void operator()(std::uint32_t i) const { log->fired.push_back(i); }
  void prefetch(std::uint32_t i) const { log->next.push_back(i); }
  void prefetch_taken(std::uint32_t i) const { log->taken.push_back(i); }
};

TEST(EventQueueTest, BankTimerArmsFiresAndRearms) {
  Arena arena;
  EventQueue q(arena);
  std::vector<bool> armed_while_firing;
  TimerBank bank;
  bank = q.make_timers(3, [&](std::uint32_t i) {
    armed_while_firing.push_back(q.armed(bank[i]));
  });
  EXPECT_EQ(bank.size, 3u);
  EXPECT_FALSE(q.armed(bank[1]));
  EXPECT_TRUE(q.empty()) << "unarmed timers are not live events";
  EXPECT_EQ(q.slot_count(), 0u) << "bank timers take no slab slot";
  EXPECT_EQ(q.bank_timer_count(), 3u);

  q.arm(bank[1], 10);
  EXPECT_TRUE(q.armed(bank[1]));
  EXPECT_FALSE(q.armed(bank[0]));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(armed_while_firing, std::vector<bool>{false})
      << "firing disarms before the callback runs";
  EXPECT_TRUE(q.empty());

  q.arm(bank[1], 20);  // re-arm in place after firing
  EXPECT_EQ(q.next_time(), 20);
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(armed_while_firing.size(), 2u);
}

TEST(EventQueueTest, BankTimerRearmSupersedesPendingFiring) {
  Arena arena;
  EventQueue q(arena);
  BankLog log;
  const TimerBank bank = q.make_timers(2, LoggingBank{&log});
  q.arm(bank[0], 10);
  q.arm(bank[0], 30);  // supersedes the t=10 firing
  q.schedule(20, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 20) << "superseded firing must be dead";
  EXPECT_EQ(q.run_next(), 20);  // the one-shot
  EXPECT_TRUE(log.fired.empty());
  EXPECT_EQ(q.run_next(), 30);
  EXPECT_EQ(log.fired, std::vector<std::uint32_t>{0});
}

TEST(EventQueueTest, BankTimerDisarmCancelsPendingFiring) {
  Arena arena;
  EventQueue q(arena);
  BankLog log;
  const TimerBank bank = q.make_timers(2, LoggingBank{&log});
  EXPECT_FALSE(q.disarm(bank[1])) << "disarming an unarmed timer is a no-op";
  q.arm(bank[1], 10);
  EXPECT_TRUE(q.disarm(bank[1]));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.disarm(bank[1])) << "double disarm";
  EXPECT_EQ(q.next_time(), kTimeNever);
  EXPECT_TRUE(log.fired.empty());
}

// Several banks share one index space: each callable sees its own indices,
// and making a bank takes no sequence number, so ties still pop in arm
// order across banks, slab timers and one-shots.
TEST(EventQueueTest, BanksNumberTheirOwnTimersAndTieByArmOrder) {
  Arena arena;
  EventQueue q(arena);
  std::vector<int> order;
  const TimerId slab = q.make_timer([&] { order.push_back(-1); });
  const TimerBank a = q.make_timers(2, [&](std::uint32_t i) {
    order.push_back(10 + static_cast<int>(i));
  });
  const TimerBank b = q.make_timers(3, [&](std::uint32_t i) {
    order.push_back(20 + static_cast<int>(i));
  });
  EXPECT_EQ(b.first, 2u);
  EXPECT_EQ(q.bank_timer_count(), 5u);
  EXPECT_EQ(q.slot_count(), 1u);
  q.arm(b[2], 5);
  q.arm(slab, 5);
  q.schedule(5, [&] { order.push_back(0); });
  q.arm(a[1], 5);
  q.arm(a[0], 4);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{10, 22, -1, 0, 11}));
}

// Stage one: a bank key that becomes the next head (the heap root after a
// pop, or the next due-ring key) is named to prefetch(i).  Stage two: the
// key taken to fire is named to prefetch_taken(i) before its callback.
TEST(EventQueueTest, BankHooksNameTheNextAndTheTakenTimer) {
  Arena arena;
  EventQueue q(arena);
  BankLog log;
  const TimerBank bank = q.make_timers(4, LoggingBank{&log});
  q.arm(bank[2], 10);
  q.arm(bank[3], 20);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(log.taken, std::vector<std::uint32_t>{2});
  EXPECT_EQ(log.next, std::vector<std::uint32_t>{3}) << "the new heap root";

  // Two zero-delay arms at the frontier go to the due ring.
  q.arm(bank[0], 10);
  q.arm(bank[1], 10);
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(log.fired, (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(log.taken, (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(log.next, (std::vector<std::uint32_t>{3, 1}))
      << "the next due-ring key";
  EXPECT_EQ(q.run_next(), 10);
  EXPECT_EQ(q.run_next(), 20);
  EXPECT_EQ(log.fired, (std::vector<std::uint32_t>{2, 0, 1, 3}));
  EXPECT_EQ(log.taken, (std::vector<std::uint32_t>{2, 0, 1, 3}));
}

TEST(InlineCallbackTest, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  InlineCallback a = [&hits] { ++hits; };
  EXPECT_TRUE(static_cast<bool>(a));
  InlineCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT: testing moved-from state
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineCallbackTest, IsThirtyTwoBytesAndHoldsThreePointers) {
  EXPECT_EQ(sizeof(InlineCallback), 32u);
  int a = 1, b = 2, c = 0;
  int* pa = &a;
  int* pb = &b;
  int* pc = &c;
  auto sum = [pa, pb, pc] { *pc = *pa + *pb; };
  EXPECT_EQ(sizeof(sum), 24u);
  InlineCallback first = sum;
  InlineCallback second = std::move(first);
  EXPECT_FALSE(static_cast<bool>(first));  // NOLINT: testing moved-from state
  second();
  EXPECT_EQ(c, 3);
}

TEST(InlineCallbackTest, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InlineCallback cb = [token] { (void)*token; };
    token.reset();
    EXPECT_FALSE(watch.expired());
    InlineCallback moved = std::move(cb);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SimulationTest, RunUntilAdvancesClockToDeadline) {
  Simulation s;
  int fired = 0;
  s.call_in(5_ms, [&] { ++fired; });
  const auto executed = s.run_until(10_ms);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), 10_ms);
}

TEST(SimulationTest, EventsCanScheduleEvents) {
  Simulation s;
  std::vector<SimTime> at;
  s.call_in(1_ms, [&] {
    at.push_back(s.now());
    s.call_in(2_ms, [&] { at.push_back(s.now()); });
  });
  s.run_until(10_ms);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], 1_ms);
  EXPECT_EQ(at[1], 3_ms);
}

TEST(SimulationTest, DeadlineExcludesLaterEvents) {
  Simulation s;
  int fired = 0;
  s.call_in(5_ms, [&] { ++fired; });
  s.call_in(15_ms, [&] { ++fired; });
  s.run_until(10_ms);
  EXPECT_EQ(fired, 1);
  s.run_until(20_ms);
  EXPECT_EQ(fired, 2);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng r(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(RngTest, JitteredStaysNearBase) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const SimTime v = r.jittered(1_ms, 0.1);
    EXPECT_GE(v, from_millis(0.9));
    EXPECT_LE(v, from_millis(1.1));
  }
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng parent(5);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(StatsTest, WelfordMeanVariance) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatsTest, MergeMatchesCombined) {
  OnlineStats a, b, all;
  Rng r(9);
  for (int i = 0; i < 500; ++i) {
    const double v = r.uniform(-1.0, 7.0);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.count(), all.count());
}

TEST(StatsTest, EmptyStatsAreZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.count(), 0u);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantSeriesIsZero) {
  std::vector<double> xs = {1, 1, 1};
  std::vector<double> ys = {2, 4, 6};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(StatsTest, EuclideanDistance) {
  std::vector<double> a = {0.0, 0.0};
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(euclidean_distance(a, b), 5.0);
}

TEST(ParallelTest, ParallelForCoversAllIndices) {
  std::vector<int> hits(64, 0);
  parallel_for(64, [&](std::size_t i) { hits[i] += 1; }, 4);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelTest, ParallelForWithOneThreadRunsOnCallerInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(
      8,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
      },
      1);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelTest, ParallelForRunsEveryIterationDespiteExceptions) {
  std::atomic<int> count{0};
  EXPECT_THROW(parallel_for(
                   10,
                   [&count](std::size_t i) {
                     if (i % 2 == 0) {
                       throw std::runtime_error("boom " + std::to_string(i));
                     }
                     count.fetch_add(1);
                   },
                   2),
               std::runtime_error);
  EXPECT_EQ(count.load(), 5) << "throwing iterations must not stop the rest";
}

TEST(ParallelTest, ParallelForRethrowsFirstException) {
  // The lowest throwing index wins, whichever worker finished first.
  for (std::size_t threads : {1u, 4u}) {
    try {
      parallel_for(
          16,
          [](std::size_t i) {
            if (i == 7 || i == 12) {
              throw std::runtime_error("iteration " + std::to_string(i));
            }
          },
          threads);
      ADD_FAILURE() << "threads=" << threads << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "iteration 7") << "threads=" << threads;
    }
  }
}

TEST(ParallelTest, AvailableCpusFollowTheAffinityMask) {
  // hardware_concurrency() counts the host's CPUs whatever the mask says,
  // so pools sized by it start several threads on one CPU under
  // `taskset -c 0`.  Pin this thread to one CPU of its mask, read, restore.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(one), &one), 0);
  const std::size_t pinned_cpus = available_cpus();
  const std::size_t pinned_threads = ShardGroup::resolve_threads(0, 4);
  ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved), 0);

  EXPECT_EQ(pinned_cpus, 1u);
  EXPECT_EQ(pinned_threads, 1u);
  EXPECT_EQ(available_cpus(), static_cast<std::size_t>(CPU_COUNT(&saved)));
}

}  // namespace
}  // namespace atcsim::sim
