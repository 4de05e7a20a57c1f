// Observability layer tests: trace sink semantics, exporters, the runtime
// invariant checker on synthetic event streams, and — the end-to-end
// acceptance case — a deliberately broken scheduler caught by the checker
// while driving a real engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/invariants.h"
#include "obs/trace.h"
#include "sched/credit.h"
#include "virt/engine.h"
#include "virt/platform.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using obs::TraceCat;
using obs::TraceConfig;
using obs::TraceEvent;
using obs::TraceSink;

TraceEvent make_event(sim::SimTime t, TraceCat cat, std::uint8_t type,
                      std::int32_t vcpu = -1, std::int32_t pcpu = -1,
                      std::int64_t a0 = 0, std::int64_t a1 = 0) {
  TraceEvent e;
  e.time = t;
  e.cat = cat;
  e.type = type;
  e.vcpu = vcpu;
  e.pcpu = pcpu;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

// ------------------------------------------------------------------ TraceSink

TEST(TraceSinkTest, BuffersEventsInEmissionOrder) {
  TraceSink sink;
  for (int i = 0; i < 5; ++i) {
    sink.emit(make_event(i * 10, TraceCat::kSim, obs::ev::kDispatchEvent));
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].time, i * 10);
  EXPECT_EQ(sink.emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSinkTest, RingDropsOldestPastCapacity) {
  TraceConfig cfg;
  cfg.capacity = 4;
  TraceSink sink(cfg);
  for (int i = 0; i < 10; ++i) {
    sink.emit(make_event(i, TraceCat::kSim, obs::ev::kDispatchEvent));
  }
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().time, 6);  // oldest surviving
  EXPECT_EQ(events.back().time, 9);
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
}

TEST(TraceSinkTest, ObserversSeeEveryEventEvenWhenRingWraps) {
  TraceConfig cfg;
  cfg.capacity = 2;
  TraceSink sink(cfg);
  int seen = 0;
  sink.add_observer([&](const TraceEvent&) { ++seen; });
  for (int i = 0; i < 8; ++i) {
    sink.emit(make_event(i, TraceCat::kSim, obs::ev::kDispatchEvent));
  }
  EXPECT_EQ(seen, 8) << "ring wrap must not hide events from observers";
  EXPECT_EQ(sink.size(), 2u);
}

TEST(TraceSinkTest, UnboundedCapacityKeepsEverything) {
  TraceConfig cfg;
  cfg.capacity = 0;
  TraceSink sink(cfg);
  for (int i = 0; i < 5000; ++i) {
    sink.emit(make_event(i, TraceCat::kSim, obs::ev::kDispatchEvent));
  }
  EXPECT_EQ(sink.snapshot().size(), 5000u);
  EXPECT_EQ(sink.dropped(), 0u);
}

// ------------------------------------------------------------------ exporters

TEST(TraceExportTest, CompactFormatIsTabSeparatedAndStable) {
  TraceEvent e = make_event(1'234'567, TraceCat::kSched, obs::ev::kEnqueue,
                            /*vcpu=*/7, /*pcpu=*/3, /*a0=*/1, /*a1=*/2);
  e.node = 0;
  e.vm = 4;
  EXPECT_EQ(obs::format_event(e), "1234567\tsched.enqueue\t0\t4\t7\t3\t1\t2");
}

TEST(TraceExportTest, CompactStreamHasHeaderAndDroppedFooter) {
  TraceConfig cfg;
  cfg.capacity = 1;
  TraceSink sink(cfg);
  sink.emit(make_event(1, TraceCat::kSim, obs::ev::kDispatchEvent));
  sink.emit(make_event(2, TraceCat::kSim, obs::ev::kDispatchEvent));
  std::ostringstream os;
  obs::write_compact(os, {&sink});
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("# atcsim trace v1\n", 0), 0u);
  EXPECT_NE(out.find("# dropped=1\n"), std::string::npos);
}

TEST(TraceExportTest, ChromeJsonPairsDispatchAndLeaveIntoSlices) {
  TraceSink sink;
  TraceEvent d = make_event(1000, TraceCat::kVcpu, obs::ev::kDispatch,
                            /*vcpu=*/0, /*pcpu=*/0, /*a0=*/30'000);
  d.node = 0;
  d.vm = 0;
  TraceEvent l = make_event(31'000, TraceCat::kVcpu, obs::ev::kLeave,
                            /*vcpu=*/0, /*pcpu=*/0,
                            /*a0=*/obs::reason::kSliceEnd, /*a1=*/30'000);
  l.node = 0;
  l.vm = 0;
  sink.emit(d);
  sink.emit(l);
  sink.emit(make_event(40'000, TraceCat::kSched, obs::ev::kEnqueue, 0, 0));
  std::ostringstream os;
  obs::write_chrome_json(os, {&sink});
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // 1000 ns -> 1.000 us.
  EXPECT_NE(out.find("\"ts\":1.000"), std::string::npos);
}

/// What merged_events must return: every sink's snapshot concatenated in
/// sink order, then stably sorted by time.
std::vector<TraceEvent> concat_stable_sorted(
    const std::vector<const TraceSink*>& sinks) {
  std::vector<TraceEvent> all;
  for (const TraceSink* sink : sinks) {
    const std::vector<TraceEvent> snapshot = sink->snapshot();
    all.insert(all.end(), snapshot.begin(), snapshot.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return all;
}

TEST(TraceExportTest, MergedEventsEqualsStableSortOfTheSinks) {
  // Four time-sorted streams on a coarse time grid (ties within and across
  // sinks); sink 2 is a ring that wraps.  Every odd trial appends one late
  // event to sink 3, whose stream then forces the full-sort fallback.  Each
  // event is tagged (vcpu = sink, a0 = emission index), so tie order shows.
  std::mt19937_64 rng(0x7ACE5EEDULL);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<std::unique_ptr<TraceSink>> owned;
    std::vector<const TraceSink*> sinks;
    for (int k = 0; k < 4; ++k) {
      TraceConfig cfg;
      cfg.capacity = k == 2 ? 64 : 0;
      owned.push_back(std::make_unique<TraceSink>(cfg));
      sim::SimTime t = static_cast<sim::SimTime>(rng() % 8);
      const int n = 100 + static_cast<int>(rng() % 100);
      for (int i = 0; i < n; ++i) {
        t += static_cast<sim::SimTime>(rng() % 3);
        owned.back()->emit(make_event(t, TraceCat::kSim,
                                      obs::ev::kDispatchEvent, k, -1, i));
      }
      sinks.push_back(owned.back().get());
    }
    if (trial % 2 == 1) {
      owned[3]->emit(make_event(1, TraceCat::kSim, obs::ev::kDispatchEvent,
                                3, -1, -1));
    }
    ASSERT_GT(sinks[2]->dropped(), 0u);

    const std::vector<TraceEvent> merged = obs::merged_events(sinks);
    const std::vector<TraceEvent> expected = concat_stable_sorted(sinks);
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      ASSERT_EQ(merged[i].time, expected[i].time) << "event " << i;
      ASSERT_EQ(merged[i].vcpu, expected[i].vcpu) << "event " << i;
      ASSERT_EQ(merged[i].a0, expected[i].a0) << "event " << i;
    }
  }
}

// ------------------------------------------------- invariant checker (synthetic)

class InvariantSyntheticTest : public ::testing::Test {
 protected:
  InvariantSyntheticTest() : checker_(sink_) {
    checker_.set_abort_on_violation(false);
  }

  void feed(const TraceEvent& e) { checker_.on_event(e); }

  const char* first_violation() const {
    return checker_.violations().empty()
               ? ""
               : checker_.violations().front().invariant.c_str();
  }

  TraceSink sink_;
  obs::InvariantChecker checker_;
};

TEST_F(InvariantSyntheticTest, CleanDispatchLeaveCycleHasNoViolations) {
  feed(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 30'000));
  feed(make_event(30'000, TraceCat::kVcpu, obs::ev::kLeave, 0, 0,
                  obs::reason::kSliceEnd, 30'000));
  feed(make_event(30'000, TraceCat::kVcpu, obs::ev::kDispatch, 1, 0, 30'000));
  EXPECT_TRUE(checker_.violations().empty());
  EXPECT_EQ(checker_.events_checked(), 3u);
}

TEST_F(InvariantSyntheticTest, DoubleDispatchOnOnePcpuIsCaught) {
  feed(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 30'000));
  feed(make_event(10, TraceCat::kVcpu, obs::ev::kDispatch, 1, 0, 30'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "pcpu-occupancy");
}

TEST_F(InvariantSyntheticTest, OneVcpuOnTwoPcpusIsCaught) {
  feed(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 30'000));
  feed(make_event(10, TraceCat::kVcpu, obs::ev::kDispatch, 0, 1, 30'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "vcpu-placement");
}

TEST_F(InvariantSyntheticTest, TimeGoingBackwardsIsCaught) {
  feed(make_event(100, TraceCat::kSim, obs::ev::kDispatchEvent));
  feed(make_event(99, TraceCat::kSim, obs::ev::kDispatchEvent));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "time-monotonic");
}

TEST_F(InvariantSyntheticTest, SliceBelowFloorIsCaught) {
  // Default limits: min_slice 30us, jitter 3% -> floor just below 29.1us.
  feed(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 20'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "slice-floor");
}

TEST_F(InvariantSyntheticTest, JitteredSliceJustBelowMinimumIsTolerated) {
  feed(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 29'100));
  EXPECT_TRUE(checker_.violations().empty());
}

TEST_F(InvariantSyntheticTest, UnbalancedSpinEpisodesAreCaught) {
  feed(make_event(0, TraceCat::kSync, obs::ev::kSpinEnd, 0, -1, 100));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "spin-nesting");
}

TEST_F(InvariantSyntheticTest, NestedSpinStartIsCaught) {
  feed(make_event(0, TraceCat::kSync, obs::ev::kSpinStart, 0));
  feed(make_event(10, TraceCat::kSync, obs::ev::kSpinStart, 0));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "spin-nesting");
}

TEST_F(InvariantSyntheticTest, NegativeSpinWallIsCaught) {
  feed(make_event(0, TraceCat::kSync, obs::ev::kSpinStart, 0));
  feed(make_event(10, TraceCat::kSync, obs::ev::kSpinEnd, 0, -1, -5));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "spin-nesting");
}

TEST_F(InvariantSyntheticTest, CreditBalanceOutsideClipIsCaught) {
  // Default clip 300 credits = 300000 mcr; 400000 is out of bounds.
  feed(make_event(0, TraceCat::kSched, obs::ev::kCredit, 0, 0, 400'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "credit-bounds");
}

TEST_F(InvariantSyntheticTest, RefillExceedingPoolIsCaught) {
  feed(make_event(0, TraceCat::kSched, obs::ev::kRefill, -1, -1,
                  /*distributed=*/900'000, /*pool=*/600'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "credit-conserved");
}

TEST_F(InvariantSyntheticTest, AbortModeThrowsWithContextDump) {
  obs::InvariantChecker strict(sink_);  // abort on violation by default
  strict.on_event(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0,
                             30'000));
  try {
    strict.on_event(
        make_event(10, TraceCat::kVcpu, obs::ev::kDispatch, 1, 0, 30'000));
    FAIL() << "expected InvariantViolation";
  } catch (const obs::InvariantViolation& ex) {
    const std::string what = ex.what();
    EXPECT_NE(what.find("pcpu-occupancy"), std::string::npos);
    EXPECT_NE(what.find("recent events:"), std::string::npos)
        << "violation message must carry the context dump";
    EXPECT_NE(what.find("vcpu.dispatch"), std::string::npos);
  }
}

TEST_F(InvariantSyntheticTest, CheckerRidesSinkObserverHook) {
  // Events emitted into the sink (not fed directly) must reach the checker.
  sink_.emit(make_event(0, TraceCat::kVcpu, obs::ev::kDispatch, 0, 0, 30'000));
  sink_.emit(make_event(5, TraceCat::kVcpu, obs::ev::kDispatch, 1, 0, 30'000));
  ASSERT_FALSE(checker_.violations().empty());
  EXPECT_STREQ(first_violation(), "pcpu-occupancy");
}

// ------------------------------------------- broken scheduler caught end-to-end

#if ATCSIM_TRACE_ENABLED

// Mutated credit scheduler: charge() corrupts the VCPU's credit balance far
// past the +/- credit_clip bound before delegating to the real accounting.
// The kSched/kCredit instrumentation inside the base charge() reports the
// corrupt balance, which the credit-bounds invariant must catch.
class BrokenCreditScheduler : public sched::CreditScheduler {
 public:
  void charge(virt::Vcpu& v, sim::SimTime run) override {
    v.sched().credits = 1e6;  // way past credit_clip (default 300)
    sched::CreditScheduler::charge(v, run);
  }
};

class BusyWorkload : public virt::Workload {
 public:
  virt::Action next(virt::Vcpu&) override {
    if (++steps_ > 50) return virt::Action::exit();
    return virt::Action::compute(2_ms);
  }
  double cache_sensitivity() const override { return 0.0; }

 private:
  int steps_ = 0;
};

TEST(InvariantEndToEndTest, BrokenSchedulerMutationIsCaughtByChecker) {
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  pc.seed = 7;
  virt::Platform platform(simulation, pc);

  TraceSink sink;
  simulation.set_trace(&sink);
  obs::InvariantChecker checker(sink);
  checker.set_abort_on_violation(false);

  virt::Vm& vm =
      platform.create_vm(virt::NodeId{0}, virt::VmType::kNonParallel, "vm", 2);
  BusyWorkload w0, w1;
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  platform.make_scheduler<BrokenCreditScheduler>(virt::NodeId{0});
  platform.engine().start();
  simulation.run_until(200_ms);

  ASSERT_FALSE(checker.violations().empty())
      << "the corrupted scheduler must trip at least one invariant";
  bool credit_bounds = false;
  for (const auto& v : checker.violations()) {
    if (v.invariant == "credit-bounds") credit_bounds = true;
  }
  EXPECT_TRUE(credit_bounds) << "expected the credit-bounds invariant";
}

TEST(InvariantEndToEndTest, IntactSchedulerProducesNoViolations) {
  sim::Simulation simulation;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 1;
  pc.seed = 7;
  virt::Platform platform(simulation, pc);

  TraceSink sink;
  simulation.set_trace(&sink);
  obs::InvariantChecker checker(sink);

  virt::Vm& vm =
      platform.create_vm(virt::NodeId{0}, virt::VmType::kNonParallel, "vm", 2);
  BusyWorkload w0, w1;
  vm.vcpus()[0].set_workload(&w0);
  vm.vcpus()[1].set_workload(&w1);
  platform.make_scheduler<sched::CreditScheduler>(virt::NodeId{0});
  platform.engine().start();
  simulation.run_until(200_ms);

  EXPECT_TRUE(checker.violations().empty());
  EXPECT_GT(checker.events_checked(), 0u);
  EXPECT_GT(sink.emitted(), 0u);
}

#endif  // ATCSIM_TRACE_ENABLED

}  // namespace
}  // namespace atcsim
