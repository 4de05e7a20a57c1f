// Differential property test for the zero-allocation event core.
//
// Drives random schedule/cancel/arm/disarm/pop/run_until sequences (seeded,
// ~10k ops per seed) against a naive reference model — a flat vector of
// (time, seq) records popped by linear scan — and checks that the real
// EventQueue agrees on every observable: pop order, fired callbacks, cancel
// return values, size/empty, next_time, and the dispatch trace records.
// The golden-trace suite (golden_trace_test.cc) separately pins
// byte-identity of full engine runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "obs/trace.h"
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
          const SimTime at = q.run_next();
          EXPECT_EQ(at, expect.time);
          EXPECT_GE(at, now);
          now = at;
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
      EXPECT_EQ(q.run_next(), expect.time);
      ASSERT_FALSE(fired.empty());
      EXPECT_EQ(fired.back(), expect.tag);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), kTimeNever);
  }
}

/// Same idea one level up, through Simulation::run_until, with callbacks
/// that do what the engine does inside its events: schedule one-shots
/// (zero-delay ones go through the due ring), arm, re-arm and disarm timers,
/// and cancel pending one-shots.  Each firing is checked in lockstep: it
/// must be the model's earliest record, at the clock's time, and its
/// `sim.dispatch` trace record must carry its event index (a0) and the live
/// count after its pop (a1).  The clock must land on every deadline.
TEST(EventQueuePropertyTest, SimulationRunUntilMatchesModel) {
  constexpr int kSeeds = 8;
  constexpr int kTimers = 3;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 77);
    Simulation s;
    obs::TraceSink sink(obs::TraceConfig{1});  // observers see every event
    std::vector<std::pair<std::int64_t, std::int64_t>> dispatched;
    sink.add_observer([&dispatched](const obs::TraceEvent& e) {
      if (e.cat == obs::TraceCat::kSim &&
          e.type == obs::ev::kDispatchEvent) {
        dispatched.emplace_back(e.a0, e.a1);
      }
    });
    s.set_trace(&sink);
    RefModel model;
    std::uint64_t events = 0;  // fired so far
    struct Handed {
      EventId id;
      std::uint64_t model_seq;
    };
    std::vector<Handed> handed;
    std::vector<TimerId> timers;
    std::vector<std::uint64_t> timer_pending(kTimers, 0);  // model seq or 0
    int next_tag = 0;

    std::function<void(int)> fire;
    auto schedule_one_shot = [&](SimTime delay) {
      const int tag = next_tag++;
      const EventId id = s.call_in(delay, [&fire, tag] { fire(tag); });
      handed.push_back({id, model.schedule(s.now() + delay, tag)});
    };
    auto cancel_one_shot = [&] {
      if (handed.empty()) return;
      const Handed& h = handed[rng.next_u64() % handed.size()];
      EXPECT_EQ(s.cancel(h.id), model.cancel(h.model_seq));
    };
    auto arm_timer = [&](SimTime delay) {
      const std::size_t ti = rng.next_u64() % kTimers;
      if (timer_pending[ti] != 0) model.cancel(timer_pending[ti]);
      timer_pending[ti] = model.schedule(
          s.now() + delay, kTimerTagBase + static_cast<int>(ti));
      s.arm_in(timers[ti], delay);
    };
    auto disarm_timer = [&] {
      const std::size_t ti = rng.next_u64() % kTimers;
      const bool expect = timer_pending[ti] != 0;
      if (expect) model.cancel(timer_pending[ti]);
      timer_pending[ti] = 0;
      EXPECT_EQ(s.disarm(timers[ti]), expect);
    };
    // Fewer than one new event per firing on average, so every drain ends.
    auto act_inside = [&] {
      const std::uint64_t dice = rng.next_u64() % 10;
      if (dice < 2) {
        schedule_one_shot(static_cast<SimTime>(rng.next_u64() % 2000));
      } else if (dice < 4) {
        schedule_one_shot(0);
      } else if (dice == 4) {
        arm_timer(rng.next_u64() % 2 == 0
                      ? 0
                      : static_cast<SimTime>(rng.next_u64() % 2000));
      } else if (dice == 5) {
        disarm_timer();
      } else if (dice == 6) {
        cancel_one_shot();
      }
    };
    fire = [&](int tag) {
      ASSERT_FALSE(model.live.empty());
      const RefModel::Rec expect = model.pop();
      EXPECT_EQ(tag, expect.tag);
      EXPECT_EQ(s.now(), expect.time);
      if (tag >= kTimerTagBase) {
        timer_pending[static_cast<std::size_t>(tag - kTimerTagBase)] = 0;
      }
#if ATCSIM_TRACE_ENABLED
      ASSERT_EQ(dispatched.size(), events + 1);
      EXPECT_EQ(dispatched.back().first, static_cast<std::int64_t>(events));
      EXPECT_EQ(dispatched.back().second,
                static_cast<std::int64_t>(model.live.size()));
#endif
      ++events;
      act_inside();
    };
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(
          s.make_timer([&fire, i] { fire(kTimerTagBase + i); }));
    }

    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t dice = rng.next_u64() % 10;
        if (dice < 6) {
          schedule_one_shot(static_cast<SimTime>(rng.next_u64() % 2000));
        } else if (dice == 6) {
          arm_timer(static_cast<SimTime>(rng.next_u64() % 2000));
        } else {
          cancel_one_shot();
        }
      }
      const SimTime deadline =
          s.now() + static_cast<SimTime>(rng.next_u64() % 1500);
      const std::uint64_t before = events;
      const std::uint64_t ran = s.run_until(deadline);
      EXPECT_EQ(ran, events - before);
      EXPECT_EQ(s.now(), deadline);
      EXPECT_TRUE(model.live.empty() || model.next_time() > deadline);
      EXPECT_EQ(s.queue().size(), model.live.size());
      EXPECT_EQ(s.events_executed(), events);
    }
    // Final full drain.
    s.run_until(kTimeNever);
    EXPECT_TRUE(model.live.empty());
    EXPECT_TRUE(s.queue().empty());
    EXPECT_GT(events, 1000u);
#if ATCSIM_TRACE_ENABLED
    EXPECT_EQ(dispatched.size(), events);
#endif
  }
}

}  // namespace
}  // namespace atcsim::sim
