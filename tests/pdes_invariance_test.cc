// Property tests for the sharded conservative-PDES engine (DESIGN.md §10).
//
// The two determinism contracts the shard-aware Scenario API makes:
//
//  1. shard-count invariance — the simulated outcome is a pure function of
//     (config, seed): carving the same cluster into 1, 2, 4 or 8 shards
//     changes only who executes which events, never the events themselves;
//  2. thread-count determinism — for a fixed shard map, the worker-thread
//     count of the ShardGroup pool is invisible: merged trace artifacts are
//     byte-identical whether rounds run on 1 thread or one per shard.
//
// Plus conservation (every cross-shard packet posted is delivered) and the
// builder's rejection of unusable shard configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "net/fabric.h"
#include "simcore/shard.h"
#include "obs/export.h"
#include "virt/params.h"
#include "virt/platform.h"
#include "workload/apps.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::Scenario;
using cluster::ScenarioBuilder;

struct RunResult {
  double superstep = 0.0;
  double spin = 0.0;
  double llc = 0.0;
  double rate = 0.0;  // summed work-rate units (loop descriptors)
  std::uint64_t fabric_posted = 0;
  std::uint64_t fabric_delivered = 0;
  std::uint64_t rounds = 0;      // ShardGroup stats (sharded only)
  std::uint64_t migrations = 0;  // started, summed over every shard
  // Global node of every guest at the end of the run, by global id; -1
  // for a guest resident on no shard's platform or on more than one.
  std::vector<int> placement;
  std::string trace;  // merged compact trace; empty unless requested
  // Digest of the merged trace (trace_hash mode), pdes.* round events
  // included.  Used instead of `trace` where holding several multi-GB
  // strings would dominate the test's memory.
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_bytes = 0;
};

struct RunCase {
  int nodes = 8;
  int shards = 1;
  std::uint64_t seed = 7;
  Approach approach = Approach::kCR;
  std::size_t threads = 0;  // ShardGroup workers; 0 = auto
  bool trace = false;       // keep the merged trace string in the result
  bool trace_hash = false;  // digest the merged trace instead of keeping it
  sim::SimTime warmup = 500_ms;
  sim::SimTime measure = 1500_ms;
  std::string app = "lu";
  workload::NpbClass cls = workload::NpbClass::kA;
  /// Workload-descriptor text; when non-empty the scenario is built from it
  /// instead of the NPB profile (descriptor.h).
  std::string descriptor;
  /// Schedule the scripted live-migration plan (see run_case): moves chosen
  /// by global VM id, so the plan is identical at every shard count.
  bool migrate = false;
};

/// FNV-1a digest of the merged trace's whole byte stream.
void hash_trace(const std::string& t, RunResult& r) {
  r.trace_bytes = t.size();
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : t) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  r.trace_hash = h;
}

std::string merged_trace(const Scenario& s) {
  std::ostringstream os;
  obs::write_compact(os, s.trace_sinks());
  return std::move(os).str();
}

// All metric aggregation paths sum integer counters before the final
// divisions, so equal event histories give bit-equal doubles — the
// comparisons below are exact on purpose.
RunResult run_case(const RunCase& c) {
  ScenarioBuilder b;
  b.nodes(c.nodes)
      .approach(c.approach)
      .seed(c.seed)
      .shards(c.shards)
      .shard_threads(c.threads);
  if (c.trace || c.trace_hash) b.tracing();
  auto sp = b.build();
  Scenario& s = *sp;
  std::string prefix = c.app + workload::npb_class_suffix(c.cls);
  if (!c.descriptor.empty()) {
    const workload::Descriptor d = workload::Descriptor::parse(c.descriptor);
    cluster::build_type_a(s, d);
    prefix = d.name;
  } else {
    cluster::build_type_a(s, c.app, c.cls);
  }
  // VM objects travel with their guests, so these stay valid across moves.
  const std::vector<virt::Vm*> guests = s.guest_vms();
  s.start();
  if (c.migrate) {
    // Three moves during the measurement window, addressed by global VM id
    // (creation order — independent of the shard map).  The half-cluster
    // hop crosses a shard boundary at every K >= 2; the single hop is
    // same-shard at low K and cross-shard at high K, so both kinds of move
    // run under comparison.
    const struct {
      std::int64_t gid;
      sim::SimTime at;
      int hop;
    } moves[] = {{2, 700_ms, c.nodes / 2}, {5, 900_ms, 1},
                 {9, 1100_ms, c.nodes / 2}};
    for (const auto& m : moves) {
      for (virt::Vm* vm : guests) {
        if (vm->global_id() != m.gid) continue;
        const int src = vm->node().platform().global_node_id(vm->node());
        s.schedule_migration(*vm, m.at, (src + m.hop) % c.nodes);
        break;
      }
    }
  }
  s.warmup_and_measure(c.warmup, c.measure);

  RunResult r;
  for (int k = 0; k < s.shard_count(); ++k) {
    r.migrations += s.migrator(k).migrations_started();
  }
  r.placement.assign(guests.size(), -1);
  for (virt::Vm* vm : guests) {
    int residences = 0;
    for (int k = 0; k < s.shard_count(); ++k) {
      residences += s.platform(k).hosts(*vm) ? 1 : 0;
    }
    if (residences == 1) {
      r.placement[static_cast<std::size_t>(vm->global_id())] =
          vm->node().platform().global_node_id(vm->node());
    }
  }
  r.superstep = s.mean_superstep_with_prefix(prefix);
  r.spin = s.avg_parallel_spin_latency();
  r.llc = s.llc_miss_rate();
  for (const auto& [key, rate] : s.metrics().all_rates()) {
    r.rate += rate.units();
  }
  if (const net::ShardFabric* f = s.fabric()) {
    r.fabric_posted = f->posted();
    r.fabric_delivered = f->delivered();
  }
  if (const sim::ShardGroup* g = s.shard_group()) {
    r.rounds = g->stats().rounds;
  }
  if (c.trace) {
    r.trace = merged_trace(s);
  } else if (c.trace_hash) {
    hash_trace(merged_trace(s), r);
  }
  return r;
}

void expect_equal_metrics(const RunResult& a, const RunResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.superstep, b.superstep) << what;
  EXPECT_EQ(a.spin, b.spin) << what;
  EXPECT_EQ(a.llc, b.llc) << what;
  EXPECT_EQ(a.rate, b.rate) << what;
}

TEST(PdesInvarianceTest, ShardCountLeavesMetricsUnchanged) {
  RunCase base;
  const RunResult serial = run_case(base);
  ASSERT_GT(serial.superstep, 0.0) << "baseline recorded no supersteps";
  for (int shards : {2, 4, 8}) {
    RunCase c = base;
    c.shards = shards;
    const RunResult sharded = run_case(c);
    expect_equal_metrics(serial, sharded,
                         "shards=" + std::to_string(shards));
    EXPECT_GT(sharded.fabric_posted, 0u)
        << "no packet crossed a shard boundary; the invariance check would "
           "be vacuous";
  }
}

TEST(PdesInvarianceTest, RandomizedConfigurationsAreShardCountInvariant) {
  std::mt19937_64 rng(0xA7C51DE5ULL);
  const Approach approaches[] = {Approach::kCR, Approach::kCS,
                                 Approach::kATC};
  for (int i = 0; i < 4; ++i) {
    RunCase base;
    base.nodes = 4 + static_cast<int>(rng() % 5);  // 4..8
    base.seed = rng();
    base.approach = approaches[rng() % 3];
    const RunResult serial = run_case(base);
    ASSERT_GT(serial.superstep, 0.0);
    for (int shards : {2, 4}) {
      if (shards > base.nodes) continue;
      RunCase c = base;
      c.shards = shards;
      expect_equal_metrics(serial, run_case(c),
                           "nodes=" + std::to_string(base.nodes) +
                               " seed=" + std::to_string(base.seed) +
                               " shards=" + std::to_string(shards));
    }
  }
}

TEST(PdesInvarianceTest, DescriptorScenariosAreShardCountInvariant) {
  // One descriptor per new phase family (think/io in a loop program; send +
  // local_barrier and io + think inside BSP supersteps), each run through
  // the same shard-count matrix as the NPB profiles.
  const struct {
    const char* label;
    const char* text;
    bool parallel;
  } cases[] = {
      {"loop think+io",
       "workload svc-loop\nrate_units 8\nphase compute 400us jitter=0.1\n"
       "phase think 600us\nphase io 32KiB\n",
       false},
      {"bsp send+local_barrier",
       "workload mesh\nphase compute 500us jitter=0.05\nphase send 16KiB\n"
       "phase local_barrier\nphase compute 400us\nphase barrier 32KiB\n",
       true},
      {"bsp io+think",
       "workload iopar\nphase compute 600us\nphase io 64KiB\n"
       "phase think 200us\nphase barrier\n",
       true},
  };
  for (const auto& c : cases) {
    RunCase base;
    base.nodes = 4;
    base.descriptor = c.text;
    const RunResult serial = run_case(base);
    if (c.parallel) {
      ASSERT_GT(serial.superstep, 0.0) << c.label;
    } else {
      ASSERT_GT(serial.rate, 0.0) << c.label;
    }
    for (int shards : {2, 4}) {
      RunCase sharded = base;
      sharded.shards = shards;
      expect_equal_metrics(serial, run_case(sharded),
                           std::string(c.label) +
                               " shards=" + std::to_string(shards));
    }
  }
}

TEST(PdesInvarianceTest, WorkerThreadCountNeverChangesTheMergedTrace) {
  RunCase base;
  base.shards = 4;
  base.trace = true;
  base.threads = 1;
  const RunResult one = run_case(base);
  ASSERT_FALSE(one.trace.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    RunCase c = base;
    c.threads = threads;
    const RunResult many = run_case(c);
    expect_equal_metrics(one, many,
                         "threads=" + std::to_string(threads));
    EXPECT_EQ(one.trace, many.trace)
        << "merged trace differs at threads=" << threads;
    EXPECT_EQ(one.fabric_posted, many.fabric_posted);
  }
}

TEST(PdesInvarianceTest, BarrierChoiceNeverChangesTheOutcome) {
  // The barrier choice is the thread count: threads = 1 runs every round
  // sequentially with no barrier, 2 and 4 fork each round onto the pool and
  // join through its spinning barrier.  It must not change the
  // simulation or the round structure: identical metrics, rounds and merged
  // traces, the coordinator's pdes.* round events included.  Traces are
  // compared by digest (hash_trace): a traced run's merged stream runs to
  // GBs, and the cells only need equality, not diffs.
  RunCase base;
  base.nodes = 4;
  base.shards = 4;
  base.trace_hash = true;
  base.threads = 1;
  base.warmup = 300_ms;
  base.measure = 700_ms;
  const RunResult ref = run_case(base);
  ASSERT_GT(ref.trace_bytes, 0u);
  ASSERT_GT(ref.rounds, 0u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    RunCase c = base;
    c.threads = threads;
    const RunResult r = run_case(c);
    const std::string what = "threads=" + std::to_string(threads);
    expect_equal_metrics(ref, r, what);
    EXPECT_EQ(r.fabric_posted, ref.fabric_posted) << what;
    EXPECT_EQ(r.rounds, ref.rounds) << what;
    EXPECT_EQ(r.trace_bytes, ref.trace_bytes) << what;
    EXPECT_EQ(r.trace_hash, ref.trace_hash) << what;
  }
}

// Shared by the migrating-scenario tests: independent loop guests
// (migratable; BSP ranks deliberately are not) whose think timers and I/O
// completions must travel in the bundle when a scripted move fires.
constexpr const char* kMigratingDescriptor =
    "workload svc\nrate_units 4\nphase compute 400us jitter=0.1\n"
    "phase think 500us\nphase io 16KiB\n";

TEST(PdesInvarianceTest, ScriptedMigrationsAreShardCountInvariant) {
  // Live migration is pure latency (DESIGN.md §12): a cross-shard move and
  // the same move executed inside one shard must be metrically identical,
  // so carving the migrating cluster differently changes nothing.
  RunCase base;
  base.nodes = 8;
  base.migrate = true;
  base.descriptor = kMigratingDescriptor;
  const RunResult serial = run_case(base);
  ASSERT_GT(serial.rate, 0.0);
  ASSERT_GT(serial.migrations, 0u)
      << "no scripted move fired; the migration invariance check would be "
         "vacuous";
  ASSERT_FALSE(serial.placement.empty());
  EXPECT_EQ(std::count(serial.placement.begin(), serial.placement.end(), -1),
            0)
      << "a guest is resident on no shard, or on several";
  for (int shards : {2, 4}) {
    RunCase c = base;
    c.shards = shards;
    const RunResult sharded = run_case(c);
    expect_equal_metrics(serial, sharded, "shards=" + std::to_string(shards));
    EXPECT_EQ(sharded.migrations, serial.migrations)
        << "shards=" << shards
        << ": the scripted plan must fire identically at every shard count";
    // Every guest ends resident on exactly one shard, on the same node at
    // every shard count, same-shard moves included (at 2 shards the gid-5
    // hop, node 5 -> 6, stays inside shard 1).
    EXPECT_EQ(sharded.placement, serial.placement) << "shards=" << shards;
  }
}

TEST(PdesInvarianceTest, MigratingRunsKeepThreadCountTraceDeterminism) {
  // With the shard map fixed, the worker-thread count must stay invisible
  // even while migration calls and the VM bundles they own cross the
  // fabric: merged traces are byte-identical.
  RunCase base;
  base.nodes = 8;
  base.shards = 4;
  base.migrate = true;
  base.trace = true;
  base.threads = 1;
  base.descriptor = kMigratingDescriptor;
  const RunResult one = run_case(base);
  ASSERT_GT(one.migrations, 0u);
  ASSERT_FALSE(one.trace.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    RunCase c = base;
    c.threads = threads;
    const RunResult many = run_case(c);
    expect_equal_metrics(one, many, "threads=" + std::to_string(threads));
    EXPECT_EQ(many.migrations, one.migrations);
    EXPECT_EQ(one.trace, many.trace)
        << "merged trace differs at threads=" << threads;
  }
}

/// Builds a traced 4-shard scenario whose per-shard set-up runs on
/// `threads` threads: type-A lu.B under ATC, or the mixed cell under
/// ATC+PM (web clients, disk, loop and BSP guests).
std::unique_ptr<Scenario> build_four_shards(bool mixed, int nodes,
                                            std::size_t threads) {
  auto s = ScenarioBuilder{}
               .nodes(nodes)
               .approach(mixed ? Approach::kATCPM : Approach::kATC)
               .seed(11)
               .shards(4)
               .shard_threads(threads)
               .tracing()
               .build();
  if (mixed) {
    cluster::build_mixed(*s);
  } else {
    cluster::build_type_a(*s, "lu", workload::NpbClass::kB);
  }
  return s;
}

TEST(PdesInvarianceTest, ShardThreadsLeaveConstructionUnchanged) {
  // Construction, VM creation, BSP apps and start() run one task per shard
  // (or per virtual cluster) on the shard threads.  Every id, name, global
  // id, node and armed event must be what one thread builds.
  const struct {
    const char* label;
    bool mixed;
    int nodes;
  } cells[] = {{"type-A lu.B", false, 16}, {"mixed", true, 64}};
  for (const auto& cell : cells) {
    SCOPED_TRACE(cell.label);
    auto one = build_four_shards(cell.mixed, cell.nodes, 1);
    auto four = build_four_shards(cell.mixed, cell.nodes, 4);
    for (int k = 0; k < 4; ++k) {
      SCOPED_TRACE("shard " + std::to_string(k));
      virt::Platform& a = one->platform(k);
      virt::Platform& b = four->platform(k);
      ASSERT_EQ(a.vm_count(), b.vm_count());
      for (std::size_t id = 0; id < a.vm_count(); ++id) {
        const virt::VmId vm_id{static_cast<std::int32_t>(id)};
        const virt::Vm& va = a.vm(vm_id);
        const virt::Vm& vb = b.vm(vm_id);
        EXPECT_EQ(va.name(), vb.name()) << "vm " << id;
        EXPECT_EQ(va.vcpus()[0].id().value, vb.vcpus()[0].id().value)
            << va.name();
        EXPECT_EQ(va.global_id(), vb.global_id()) << va.name();
        EXPECT_EQ(a.global_node_id(va.node()), b.global_node_id(vb.node()))
            << va.name();
      }
    }

    one->start();
    four->start();
    for (int k = 0; k < 4; ++k) {
      EXPECT_EQ(one->simulation(k).next_event_time(),
                four->simulation(k).next_event_time())
          << "shard " << k;
      EXPECT_EQ(one->simulation(k).queue().size(),
                four->simulation(k).queue().size())
          << "shard " << k;
    }

    one->run_for(100_ms);
    four->run_for(100_ms);
    EXPECT_GT(one->events_executed(), 0u);
    EXPECT_EQ(one->events_executed(), four->events_executed());
    EXPECT_EQ(merged_trace(*one), merged_trace(*four));
  }
}

TEST(PdesInvarianceTest, FabricConservesCrossShardPackets) {
  RunCase c;
  c.shards = 4;
  const RunResult r = run_case(c);
  EXPECT_GT(r.fabric_posted, 0u);
  // run_for() returns between rounds with every mailbox drained, so posted
  // and delivered must agree exactly.
  EXPECT_EQ(r.fabric_posted, r.fabric_delivered);
}

TEST(PdesInvarianceTest, BuilderRejectsUnusableShardCounts) {
  for (int shards : {0, -1, 9}) {
    EXPECT_THROW(ScenarioBuilder{}.nodes(8).shards(shards).validated(),
                 std::invalid_argument)
        << "shards=" << shards;
  }
  // A wire latency below the lookahead floor would make rounds advance less
  // than a microsecond of simulated time each.
  virt::ModelParams params;
  params.wire_latency = 500;  // ns, below the 1 us PDES lookahead floor
  EXPECT_THROW(
      ScenarioBuilder{}.nodes(4).shards(2).params(params).validated(),
      std::invalid_argument);
  // ...but the same latency is fine unsharded (no lookahead involved).
  EXPECT_NO_THROW(ScenarioBuilder{}.nodes(4).params(params).validated());
}

}  // namespace
}  // namespace atcsim
