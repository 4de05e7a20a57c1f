// perf_report: tracked performance trajectory for the simcore hot path.
//
// Runs a fixed suite of micro and macro benchmarks over the event core and
// emits one JSON "run" record.  With --append the record is appended to the
// history array of an existing BENCH_simcore.json (created when missing), so
// the repo root carries a before/after trajectory every PR can extend.
//
//   perf_report                         # print the run record to stdout
//   perf_report --label "my change" --append ../BENCH_simcore.json
//
// Every benchmark reports events (or ops) per wall second plus the number of
// heap allocations per event observed during the measured repetition, via a
// global operator-new hook.  The schedule/pop and macro-throughput loops must
// stay at 0.0 allocs/event — that is the zero-allocation contract of
// EventQueue; CI runs this binary as a smoke test (numbers informational).
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "report_common.h"
#include "simcore/event_queue.h"
#include "simcore/rng.h"
#include "simcore/simulation.h"

namespace {

using namespace atcsim;
namespace rb = atcsim::bench;
using rb::Result;
using sim::SimTime;
using namespace sim::time_literals;

// ---------------------------------------------------------------- micro ---

/// Steady-state schedule/pop churn: 64 in-flight events, FIFO-ish pop.  The
/// canonical hot loop of the simulator; must be allocation-free after the
/// warmup repetition.
Result micro_schedule_pop() {
  sim::EventQueue q;
  std::uint64_t sink = 0;
  return rb::bench(5, [&]() -> std::uint64_t {
    constexpr std::uint64_t kBatches = 20'000;
    SimTime t = 0;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      for (int i = 0; i < 64; ++i) {
        q.schedule(t + (i * 7919) % 1000, [&sink] { ++sink; });
      }
      while (!q.empty()) q.pop().fn();
      t += 1000;
    }
    return kBatches * 64;
  });
}

/// Steady-state cancel cost: schedule a batch, cancel all of it, let the
/// queue prune.  Dead entries must not accumulate across batches.
Result micro_cancel_steady() {
  sim::EventQueue q;
  std::vector<sim::EventId> ids;
  ids.reserve(64);
  return rb::bench(5, [&]() -> std::uint64_t {
    constexpr std::uint64_t kBatches = 20'000;
    for (std::uint64_t b = 0; b < kBatches; ++b) {
      ids.clear();
      const SimTime t = static_cast<SimTime>(b) * 64;
      for (int i = 0; i < 64; ++i) ids.push_back(q.schedule(t + i, [] {}));
      for (auto id : ids) q.cancel(id);
      (void)q.next_time();  // prunes the dead batch
    }
    return kBatches * 64;
  });
}

// ---------------------------------------------------------------- macro ---

/// Macro event-throughput: a full Simulation::run over an engine-shaped
/// storm.  Each of 512 actors, when fired, (a) schedules its own next firing,
/// and (b) cancels + reschedules a watchdog event — exactly the slice-timer
/// churn pattern of virt::Engine (dispatch arms a slice expiry; most slices
/// are cancelled early when the compute segment finishes first).
Result macro_event_throughput() {
  return rb::bench(3, []() -> std::uint64_t {
    constexpr int kActors = 512;
    constexpr std::uint64_t kTarget = 1'500'000;
    struct Actor {
      sim::EventId watchdog;
    };
    struct Ctx {
      sim::Simulation s;
      sim::Rng rng{42};
      std::vector<Actor> actors;
      std::uint64_t fired = 0;
    } ctx;
    ctx.actors.resize(kActors);
    // Self-rescheduling closure per actor.  Kept to 16 bytes so the capture
    // is inline under both the old std::function queue and the new one —
    // the comparison measures the queue, not capture spill.
    struct Fire {
      Ctx* c;
      int idx;
      void operator()() const {
        ++c->fired;
        Actor& a = c->actors[static_cast<std::size_t>(idx)];
        if (a.watchdog.valid()) c->s.cancel(a.watchdog);
        a.watchdog = c->s.call_in(
            2000 + static_cast<SimTime>(c->rng.next_u64() % 1000), [] {});
        if (c->fired < c->actors.size() * 3000) {
          c->s.call_in(1 + static_cast<SimTime>(c->rng.next_u64() % 997),
                       *this);
        }
      }
    };
    for (int i = 0; i < kActors; ++i) {
      ctx.s.call_in(1 + static_cast<SimTime>(ctx.rng.next_u64() % 997),
                    Fire{&ctx, i});
    }
    while (ctx.fired < kTarget && ctx.s.pending_events() > 0) {
      ctx.s.run_until(ctx.s.now() + 1_ms);
    }
    return ctx.s.events_executed();
  });
}

/// End-to-end 32-node LU sweep cell under ATC (the fig10 shape at type-B
/// scale): measures simulator events per wall second with the full
/// engine/scheduler/network model in the loop.
Result macro_lu32() {
  return rb::bench(3, []() -> std::uint64_t {
    auto s = rb::lu_b_atc_macro(32);
    s->run_for(3_s);
    return s->events_executed();
  });
}

/// Cancel-heavy profile: sub-ms slices multiply slice-timer arm/cancel
/// churn per unit of guest progress.
Result macro_cancel_heavy() {
  return rb::bench(3, []() -> std::uint64_t {
    virt::ModelParams params;
    params.default_time_slice = 300'000;  // 0.3 ms
    auto s = cluster::ScenarioBuilder{}
                 .nodes(4)
                 .pcpus_per_node(8)
                 .vms_per_node(4)
                 .vcpus_per_vm(8)
                 .approach(cluster::Approach::kCR)
                 .params(params)
                 .seed(7)
                 .build();
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
    s->start();
    s->run_for(1_s);
    return s->events_executed();
  });
}

/// Sync-heavy profile: 16-VCPU VMs on 8-PCPU nodes (the paper's motivation
/// shape) under ATC make descheduled spinners, SyncEvent signalling and
/// adaptive slice-timer churn dominate.
Result macro_sync_heavy() {
  return rb::bench(3, []() -> std::uint64_t {
    auto s = cluster::ScenarioBuilder{}
                 .nodes(2)
                 .pcpus_per_node(8)
                 .vms_per_node(4)
                 .vcpus_per_vm(16)  // wide VMs: heavy spin/sync pressure
                 .approach(cluster::Approach::kATC)
                 .seed(7)
                 .allow_wide_vms()
                 .build();
    cluster::build_type_a(*s, "cg", workload::NpbClass::kB);
    s->start();
    s->run_for(3_s);
    return s->events_executed();
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string label = "dev";
  std::string append_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--label" && i + 1 < argc) {
      label = argv[++i];
    } else if (a == "--append" && i + 1 < argc) {
      append_path = argv[++i];
    } else if (a == "--quick") {
      quick = true;  // skip the slowest macros (CI smoke on tiny runners)
    } else {
      std::fprintf(stderr,
                   "usage: %s [--label str] [--append BENCH_simcore.json] "
                   "[--quick]\n",
                   argv[0]);
      return 2;
    }
  }

  std::fprintf(stderr, "perf_report: micro_schedule_pop...\n");
  const Result sp = micro_schedule_pop();
  std::fprintf(stderr, "perf_report: micro_cancel_steady...\n");
  const Result cs = micro_cancel_steady();
  std::fprintf(stderr, "perf_report: macro_event_throughput...\n");
  const Result et = macro_event_throughput();
  Result lu, ch, sy;
  if (!quick) {
    std::fprintf(stderr, "perf_report: macro_lu32_atc...\n");
    lu = macro_lu32();
    std::fprintf(stderr, "perf_report: macro_cancel_heavy...\n");
    ch = macro_cancel_heavy();
    std::fprintf(stderr, "perf_report: macro_sync_heavy...\n");
    sy = macro_sync_heavy();
  }

  std::ostringstream run;
  run << "    {\n"
      << "      \"label\": \"" << label << "\",\n"
      << "      \"date\": \"" << rb::iso_now() << "\",\n"
      << "      \"build_type\": \"" << ATCSIM_BUILD_TYPE << "\",\n";
  rb::emit_result(run, "micro_schedule_pop", sp);
  rb::emit_result(run, "micro_cancel_steady", cs);
  rb::emit_result(run, "macro_event_throughput", et, quick);
  if (!quick) {
    rb::emit_result(run, "macro_lu32_atc", lu);
    rb::emit_result(run, "macro_cancel_heavy", ch);
    rb::emit_result(run, "macro_sync_heavy", sy, true);
  }
  run << "    }";

  if (append_path.empty()) {
    std::printf("%s\n", run.str().c_str());
    return 0;
  }

  if (!rb::append_history(append_path, run.str(), "simcore")) return 1;
  std::fprintf(stderr, "perf_report: wrote %s\n", append_path.c_str());
  return 0;
}
