// Differential property test for the zero-allocation event core.
//
// Drives random schedule/cancel/arm/disarm/pop/run_until sequences (seeded,
// ~10k ops per seed) against a naive reference model — a flat vector of
// (time, seq) records popped by linear scan — and checks that the real
// EventQueue agrees on every observable: pop order, fired callbacks, cancel
// return values, size/empty, next_time.  The golden-trace suite
// (golden_trace_test.cc) separately pins byte-identity of full engine runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"

namespace atcsim::sim {
namespace {

/// Naive reference: unordered vector, linear-scan min by (time, seq).  The
/// model allocates its own seq numbers in the same places the queue does
/// (one per schedule and per arm), so tie-break order is comparable.
struct RefModel {
  struct Rec {
    SimTime time;
    std::uint64_t seq;
    int tag;  // what the callback reports when fired
  };
  std::vector<Rec> live;
  std::uint64_t next_seq = 1;

  std::uint64_t schedule(SimTime t, int tag) {
    live.push_back({t, next_seq, tag});
    return next_seq++;
  }
  bool cancel(std::uint64_t seq) {
    auto it = std::find_if(live.begin(), live.end(),
                           [&](const Rec& r) { return r.seq == seq; });
    if (it == live.end()) return false;
    live.erase(it);
    return true;
  }
  std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      if (live[i].time < live[best].time ||
          (live[i].time == live[best].time &&
           live[i].seq < live[best].seq)) {
        best = i;
      }
    }
    return best;
  }
  SimTime next_time() const {
    if (live.empty()) return kTimeNever;
    return live[min_index()].time;
  }
  Rec pop() {
    const std::size_t i = min_index();
    const Rec r = live[i];
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    return r;
  }
};

constexpr int kTimerTagBase = 1'000'000;  // timer tags live above one-shots

TEST(EventQueuePropertyTest, DifferentialAgainstNaiveModel) {
  constexpr int kSeeds = 12;
  constexpr int kOpsPerSeed = 10'000;
  constexpr int kTimers = 4;

  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    Arena arena;
    EventQueue q(arena);
    RefModel model;
    std::vector<int> fired;  // tags in firing order, real queue

    // A few long-lived timers; model their pending firing as a plain record.
    std::vector<TimerId> timers;
    std::vector<std::uint64_t> timer_pending(kTimers, 0);  // model seq or 0
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(q.make_timer([&fired, i] {
        fired.push_back(kTimerTagBase + i);
      }));
    }

    // One-shot ids handed out so far, incl. already dead ones (staleness).
    struct Handed {
      EventId id;
      std::uint64_t model_seq;
    };
    std::vector<Handed> handed;

    SimTime now = 0;
    int next_tag = 0;
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const std::uint64_t dice = rng.next_u64() % 100;
      if (dice < 40) {  // schedule a one-shot
        const SimTime t = now + static_cast<SimTime>(rng.next_u64() % 500);
        const int tag = next_tag++;
        const EventId id = q.schedule(t, [&fired, tag] {
          fired.push_back(tag);
        });
        handed.push_back({id, model.schedule(t, tag)});
      } else if (dice < 55 && !handed.empty()) {  // cancel (maybe stale)
        const Handed& h =
            handed[rng.next_u64() % handed.size()];
        EXPECT_EQ(q.cancel(h.id), model.cancel(h.model_seq));
      } else if (dice < 65) {  // arm a timer (may supersede)
        const std::size_t ti = rng.next_u64() % kTimers;
        const SimTime t = now + static_cast<SimTime>(rng.next_u64() % 500);
        if (timer_pending[ti] != 0) model.cancel(timer_pending[ti]);
        timer_pending[ti] = model.schedule(
            t, kTimerTagBase + static_cast<int>(ti));
        q.arm(timers[ti], t);
      } else if (dice < 72) {  // disarm a timer
        const std::size_t ti = rng.next_u64() % kTimers;
        bool expect = timer_pending[ti] != 0;
        if (expect) model.cancel(timer_pending[ti]);
        timer_pending[ti] = 0;
        EXPECT_EQ(q.disarm(timers[ti]), expect);
      } else if (dice < 92) {  // pop one event
        ASSERT_EQ(q.empty(), model.live.empty());
        if (!model.live.empty()) {
          const RefModel::Rec expect = model.pop();
          if (expect.tag >= kTimerTagBase) {
            timer_pending[static_cast<std::size_t>(expect.tag -
                                                   kTimerTagBase)] = 0;
          }
          const auto before = fired.size();
          EventQueue::Popped p = q.pop();
          EXPECT_EQ(p.time, expect.time);
          EXPECT_GE(p.time, now);
          now = p.time;
          p.fn();
          ASSERT_EQ(fired.size(), before + 1);
          EXPECT_EQ(fired.back(), expect.tag);
        }
      } else {  // observables
        EXPECT_EQ(q.next_time(), model.next_time());
        EXPECT_EQ(q.size(), model.live.size());
        EXPECT_EQ(q.empty(), model.live.empty());
      }
    }

    // Drain to the end; order must match exactly.
    while (!model.live.empty()) {
      const RefModel::Rec expect = model.pop();
      ASSERT_FALSE(q.empty());
      EventQueue::Popped p = q.pop();
      EXPECT_EQ(p.time, expect.time);
      p.fn();
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expect.tag);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), kTimeNever);
  }
}

/// Same idea one level up: random call_in/call_at/cancel through Simulation,
/// drained in run_until chunks; firing order must match the model and the
/// clock must land on every deadline.
TEST(EventQueuePropertyTest, SimulationRunUntilMatchesModel) {
  constexpr int kSeeds = 8;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 77);
    Simulation s;
    RefModel model;
    std::vector<int> fired;
    std::vector<int> expect_fired;
    struct Handed {
      EventId id;
      std::uint64_t model_seq;
    };
    std::vector<Handed> handed;
    int next_tag = 0;

    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t dice = rng.next_u64() % 10;
        if (dice < 7) {
          const SimTime delay =
              static_cast<SimTime>(rng.next_u64() % 2000);
          const int tag = next_tag++;
          const EventId id =
              s.call_in(delay, [&fired, tag] { fired.push_back(tag); });
          handed.push_back({id, model.schedule(s.now() + delay, tag)});
        } else if (!handed.empty()) {
          const Handed& h = handed[rng.next_u64() % handed.size()];
          EXPECT_EQ(s.cancel(h.id), model.cancel(h.model_seq));
        }
      }
      const SimTime deadline =
          s.now() + static_cast<SimTime>(rng.next_u64() % 1500);
      std::uint64_t expect_count = 0;
      while (!model.live.empty() && model.next_time() <= deadline) {
        expect_fired.push_back(model.pop().tag);
        ++expect_count;
      }
      EXPECT_EQ(s.run_until(deadline), expect_count);
      EXPECT_EQ(s.now(), deadline);
      ASSERT_EQ(fired, expect_fired);
    }
    // Final full drain.
    while (!model.live.empty()) expect_fired.push_back(model.pop().tag);
    s.run_until(kTimeNever);
    EXPECT_EQ(fired, expect_fired);
  }
}

}  // namespace
}  // namespace atcsim::sim
