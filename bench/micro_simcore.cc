// google-benchmark micro suite: hot paths of the simulator (event queue,
// timers, RNG, histogram recording, end-to-end event throughput) plus macro
// end-to-end profiles (32-node LU sweep, cancel-heavy, sync-heavy).
// End-to-end speed and memory are measured by atcsim_bench (see README
// "Benchmarking").
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "metrics/recorders.h"
#include "simcore/event_queue.h"
#include "simcore/rng.h"

namespace {

using namespace atcsim;
using namespace atcsim::sim::time_literals;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::Arena arena;
  sim::EventQueue q(arena);
  sim::SimTime t = 0;
  int dummy = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(t + (i * 7919) % 1000, [&dummy] { ++dummy; });
    }
    while (!q.empty()) q.pop().fn();
    t += 1000;
  }
  benchmark::DoNotOptimize(dummy);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_EventQueueCancel(benchmark::State& state) {
  sim::Arena arena;
  sim::EventQueue q(arena);
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  sim::SimTime t = 0;
  for (auto _ : state) {
    ids.clear();
    for (int i = 0; i < 64; ++i) ids.push_back(q.schedule(t + i, [] {}));
    for (auto id : ids) q.cancel(id);
    // Prune the dead batch so iterations measure steady-state cancel cost:
    // without this the dead keys of every past iteration pile up in the
    // heap and the benchmark degenerates into measuring an ever-growing
    // array (the pre-rewrite version of this benchmark had that bug).
    benchmark::DoNotOptimize(q.next_time());
    t += 64;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueueCancel);

// Reusable timer slots: the engine's slice-timer pattern (arm, fire, re-arm
// in place) with zero construction per firing.
void BM_EventQueueTimerRearm(benchmark::State& state) {
  sim::Arena arena;
  sim::EventQueue q(arena);
  std::uint64_t fired = 0;
  const sim::TimerId timer = q.make_timer([&fired] { ++fired; });
  sim::SimTime t = 0;
  for (auto _ : state) {
    q.arm(timer, ++t);
    q.pop().fn();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerRearm);

// Arm/disarm churn without firing: the cancel-heavy half of the engine's
// dispatch cycle (slices that end early by blocking or compute completion).
void BM_EventQueueTimerArmDisarm(benchmark::State& state) {
  sim::Arena arena;
  sim::EventQueue q(arena);
  const sim::TimerId timer = q.make_timer([] {});
  sim::SimTime t = 0;
  for (auto _ : state) {
    q.arm(timer, ++t);
    q.disarm(timer);
    benchmark::DoNotOptimize(q.next_time());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTimerArmDisarm);

void BM_RngNextU64(benchmark::State& state) {
  sim::Rng rng(1);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next_u64();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNextU64);

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.exponential(1.0);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngExponential);

// The histogram half of DurationRecorder::record(): samples spread over
// four octaves (1-16 ms), the span of a typical superstep or latency
// recorder, so every add() goes through the octave directory.
void BM_LogHistogramAdd(benchmark::State& state) {
  sim::Rng rng(1);
  std::vector<double> samples(1024);
  for (double& v : samples) v = 1e-3 * std::exp2(rng.uniform(0.0, 4.0));
  metrics::LogHistogram h;
  benchmark::DoNotOptimize(&h);
  std::size_t i = 0;
  for (auto _ : state) {
    h.add(samples[i]);
    i = (i + 1) % samples.size();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(h.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramAdd);

// End-to-end: simulated seconds per wall second for a 1-node ATC scenario —
// the figure harnesses' dominant cost.
void BM_EndToEndAtcScenario(benchmark::State& state) {
  for (auto _ : state) {
    auto s = cluster::ScenarioBuilder{}
                 .nodes(1)
                 .vms_per_node(4)
                 .vcpus_per_vm(4)
                 .pcpus_per_node(4)
                 .approach(cluster::Approach::kATC)
                 .build();
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
    s->start();
    s->run_for(500_ms);
    benchmark::DoNotOptimize(s->simulation().events_executed());
  }
}
BENCHMARK(BM_EndToEndAtcScenario)->Unit(benchmark::kMillisecond);

void BM_EndToEndCreditScenario(benchmark::State& state) {
  for (auto _ : state) {
    auto s = cluster::ScenarioBuilder{}
                 .nodes(1)
                 .vms_per_node(4)
                 .vcpus_per_vm(4)
                 .pcpus_per_node(4)
                 .approach(cluster::Approach::kCR)
                 .build();
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
    s->start();
    s->run_for(500_ms);
    benchmark::DoNotOptimize(s->simulation().events_executed());
  }
}
BENCHMARK(BM_EndToEndCreditScenario)->Unit(benchmark::kMillisecond);

// ---- macro end-to-end profiles (events/sec with the full model in loop) ---

/// Shared runner: items processed = simulator events, so google-benchmark
/// reports events/sec directly.
void run_macro(benchmark::State& state, const cluster::ScenarioBuilder& builder,
               const char* app, sim::SimTime duration) {
  for (auto _ : state) {
    auto s = builder.build();
    cluster::build_type_a(*s, app, workload::NpbClass::kB);
    s->start();
    s->run_for(duration);
    state.SetItemsProcessed(
        state.items_processed() +
        static_cast<std::int64_t>(s->events_executed()));
  }
}

/// 32-node LU sweep cell under ATC: the fig10 shape at type-B scale.
void BM_MacroLu32Atc(benchmark::State& state) {
  run_macro(state,
            cluster::ScenarioBuilder{}
                .nodes(32)
                .pcpus_per_node(8)
                .vms_per_node(4)
                .vcpus_per_vm(8)
                .approach(cluster::Approach::kATC)
                .seed(7),
            "lu", 500_ms);
}
BENCHMARK(BM_MacroLu32Atc)->Unit(benchmark::kMillisecond);

/// Cancel-heavy: sub-ms slices multiply slice-timer arm/disarm churn.
void BM_MacroCancelHeavy(benchmark::State& state) {
  virt::ModelParams params;
  params.default_time_slice = 300'000;  // 0.3 ms
  run_macro(state,
            cluster::ScenarioBuilder{}
                .nodes(4)
                .pcpus_per_node(8)
                .vms_per_node(4)
                .vcpus_per_vm(8)
                .approach(cluster::Approach::kCR)
                .params(params)
                .seed(7),
            "lu", 500_ms);
}
BENCHMARK(BM_MacroCancelHeavy)->Unit(benchmark::kMillisecond);

/// Sync-heavy: 16-VCPU VMs on 8-PCPU nodes under ATC — descheduled
/// spinners, SyncEvent signalling and adaptive slice churn dominate.
void BM_MacroSyncHeavy(benchmark::State& state) {
  run_macro(state,
            cluster::ScenarioBuilder{}
                .nodes(2)
                .pcpus_per_node(8)
                .vms_per_node(4)
                .vcpus_per_vm(16)
                .approach(cluster::Approach::kATC)
                .seed(7)
                .allow_wide_vms(),
            "cg", 500_ms);
}
BENCHMARK(BM_MacroSyncHeavy)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
