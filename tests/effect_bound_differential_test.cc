// Differential property suite for the incremental effect-time index
// (DESIGN.md §10): the preserved full-scan reference implementation
// (Engine::earliest_effect_time_reference, kept exactly like the legacy
// sched::LinearRunQueues was) must agree with the incremental index at
// every query, across randomized descriptor scenarios and live migrations,
// at shards {2, 4}.
//
// The bound feeds every PDES round's earliest-output-time offer, so the
// suite turns on Engine::set_differential_check on every shard: the engine
// then computes BOTH implementations inside every one of those queries and
// aborts on the first mismatch.  The tests just run the scenario; surviving
// the run is the assertion (one per round per shard, thousands of
// comparisons per case).  At shards == 1 nothing queries the bound and the
// index is gated off, which the last test pins.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "simcore/shard.h"
#include "virt/engine.h"
#include "virt/platform.h"
#include "workload/descriptor.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

// Descriptor texts spanning the phase families whose timers feed the
// effect registry differently: think timers (signal_in with waiters),
// I/O completions (deposits), BSP barriers (SyncEvent waiter churn) and
// jittered compute (per-VCPU bound terms).
const char* const kDescriptors[] = {
    // independent loop guests: think + io, the migration-friendly shape
    "workload svc\nrate_units 4\nphase compute 400us jitter=0.1\n"
    "phase think 500us\nphase io 16KiB\n",
    // BSP with send + local_barrier: waiter sets grow and shrink mid-round
    "workload mesh\nphase compute 500us jitter=0.05\nphase send 16KiB\n"
    "phase local_barrier\nphase compute 400us\nphase barrier 32KiB\n",
    // BSP with io + think inside the superstep
    "workload iopar\nphase compute 600us\nphase io 64KiB\n"
    "phase think 200us\nphase barrier\n",
};

struct DiffCase {
  int nodes = 8;
  int shards = 1;
  std::uint64_t seed = 7;
  Approach approach = Approach::kCR;
  std::string descriptor;
  bool migrate = false;
};

std::unique_ptr<Scenario> build_case(const DiffCase& c) {
  auto sp = ScenarioBuilder{}
                .nodes(c.nodes)
                .approach(c.approach)
                .seed(c.seed)
                .shards(c.shards)
                .build();
  Scenario& s = *sp;
  for (int k = 0; k < s.shard_count(); ++k) {
    s.platform(k).engine().set_differential_check(true);
  }
  if (!c.descriptor.empty()) {
    cluster::build_type_a(s, workload::Descriptor::parse(c.descriptor));
  } else {
    cluster::build_type_a(s, "lu", workload::NpbClass::kA);
  }
  s.start();
  if (c.migrate) {
    // Same scripted plan as pdes_invariance_test: global-id addressed so
    // the moves are identical at every shard count, with at least one
    // cross-shard hop at every K >= 2.  Scheduled early enough that every
    // copy (~300 ms at default ws/NIC params) lands before the shortest
    // run below ends, so the adoptions run under the check too.
    const struct {
      std::int64_t gid;
      sim::SimTime at;
      int hop;
    } moves[] = {{2, 150_ms, c.nodes / 2}, {5, 200_ms, 1},
                 {9, 250_ms, c.nodes / 2}};
    for (const auto& m : moves) {
      for (virt::Vm* vm : s.guest_vms()) {
        if (vm->global_id() != m.gid) continue;
        const int src = vm->node().platform().global_node_id(vm->node());
        s.schedule_migration(*vm, m.at, (src + m.hop) % c.nodes);
        break;
      }
    }
  }
  return sp;
}

TEST(EffectBoundDifferentialTest, RandomizedShardedRunsPassTheInRunCheck) {
  // Every round's earliest_effect_time query self-checks (abort on
  // mismatch).  Randomize cluster shape, seed and approach at shards
  // {2, 4} so the comparison sweeps many waiter/timer interleavings; then
  // run ATC on every descriptor, with and without the scripted moves, at
  // shards 2.
  std::vector<DiffCase> cases;
  std::mt19937_64 rng(0xD1FFB0C4ULL);
  const Approach approaches[] = {Approach::kCR, Approach::kCS,
                                 Approach::kATC};
  for (int i = 0; i < 3; ++i) {
    DiffCase c;
    c.nodes = 4 + static_cast<int>(rng() % 5);  // 4..8
    c.seed = rng();
    c.approach = approaches[rng() % 3];
    c.descriptor = kDescriptors[i % 3];
    for (int shards : {2, 4}) {
      if (shards > c.nodes) continue;
      c.shards = shards;
      cases.push_back(c);
    }
  }
  std::mt19937_64 seeds(0x5EED0B0D1ULL);
  for (const char* desc : kDescriptors) {
    for (const bool migrate : {false, true}) {
      DiffCase c;
      c.shards = 2;
      c.seed = seeds();
      c.approach = Approach::kATC;
      c.descriptor = desc;
      c.migrate = migrate;
      cases.push_back(c);
    }
  }
  for (const DiffCase& c : cases) {
    auto sp = build_case(c);
    sp->warmup_and_measure(200_ms, 400_ms);
    const sim::ShardGroup* g = sp->shard_group();
    ASSERT_NE(g, nullptr);
    const std::string what = "nodes=" + std::to_string(c.nodes) +
                             " seed=" + std::to_string(c.seed) +
                             " shards=" + std::to_string(c.shards) +
                             " migrate=" + std::to_string(c.migrate) +
                             " descriptor:\n" + c.descriptor;
    EXPECT_GT(g->stats().rounds, 0u)
        << what << "\nno PDES round ran; the in-run check was vacuous";
    EXPECT_GT(g->stats().bound_recomputes, 0u) << what;
  }
}

TEST(EffectBoundDifferentialTest, MigratingShardedRunsPassTheInRunCheck) {
  // Live migration is the hardest case for the index: owned timers are
  // cancelled at expel (their SyncEvents' pending effects cleared), the VM's
  // fold leaf is tombstoned, and the destination re-arms travelled timers
  // with waiters already registered.  The in-run check must survive all of
  // it on both sides of the move.
  DiffCase c;
  c.nodes = 8;
  c.descriptor = kDescriptors[0];
  c.migrate = true;
  for (int shards : {2, 4}) {
    c.shards = shards;
    auto sp = build_case(c);
    Scenario& s = *sp;
    s.warmup_and_measure(200_ms, 500_ms);
    std::uint64_t migrations = 0;
    for (int k = 0; k < s.shard_count(); ++k) {
      migrations += s.migrator(k).migrations_started();
    }
    EXPECT_GT(migrations, 0u)
        << "shards=" << shards
        << ": no scripted move fired; the migration coverage is vacuous";
  }
}

TEST(EffectBoundDifferentialTest, GatingLeavesTheIndexEmptyAtShardsOne) {
  // Nothing queries the bound in a one-shard run, so it must not pay for
  // the index at all — tracking off, zero recomputes, zero cache hits.
  DiffCase c;
  c.nodes = 4;
  c.descriptor = kDescriptors[0];
  auto sp = build_case(c);
  Scenario& s = *sp;
  s.run_for(200_ms);
  virt::Engine& eng = s.platform().engine();
  EXPECT_FALSE(eng.effect_tracking());
  EXPECT_EQ(eng.bound_stats().recomputes, 0u);
  EXPECT_EQ(eng.bound_stats().cache_hits, 0u);
}

}  // namespace
}  // namespace atcsim
