// Cluster tests: trace synthesis (Table I), placement, scenario builders,
// approach installation.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <typeinfo>
#include <utility>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "cluster/trace.h"
#include "obs/export.h"
#include "sched/coschedule.h"
#include "sched/credit.h"
#include "sched/vslicer.h"

namespace atcsim::cluster {
namespace {

using namespace sim::time_literals;

TEST(TraceTest, Table1PercentagesSumToHundred) {
  double total = 0.0;
  for (const auto& b : atlas_table1()) total += b.percent;
  EXPECT_NEAR(total, 100.0, 0.1);
}

TEST(TraceTest, Table1MatchesPaper) {
  const auto& t = atlas_table1();
  ASSERT_EQ(t.size(), 7u);
  EXPECT_EQ(t[0].vcpus, 8);
  EXPECT_DOUBLE_EQ(t[0].percent, 31.4);
  EXPECT_EQ(t[5].vcpus, 256);
  EXPECT_DOUBLE_EQ(t[5].percent, 4.5);
}

TEST(TraceTest, PaperVcSizesMatchSection4B2) {
  const auto sizes = paper_vc_sizes_vms();
  ASSERT_EQ(sizes.size(), 10u);  // ten virtual clusters
  int total = 0;
  for (int s : sizes) total += s;
  // The paper says "ninety" VMs but its own configuration (1x32 + 2x16 +
  // 3x8 + 1x4 + 3x2 VMs) sums to 98 -- and 98 + 30 independent VMs = 128
  // exactly, so "ninety" is the typo.  See EXPERIMENTS.md.
  EXPECT_EQ(total, 98);
  EXPECT_EQ(sizes[0], 32);  // one 256-VCPU cluster
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 16), 2);
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 8), 3);
  EXPECT_EQ(std::count(sizes.begin(), sizes.end(), 2), 3);
}

TEST(PlacementTest, SpreadsClusterAcrossDistinctNodes) {
  std::vector<int> capacity(8, 4);
  const auto placement = place_cluster(capacity, 8);
  ASSERT_EQ(placement.size(), 8u);
  std::set<int> nodes(placement.begin(), placement.end());
  EXPECT_EQ(nodes.size(), 8u);  // one VM per node when it fits
}

TEST(PlacementTest, ReusesNodesOnlyWhenNecessary) {
  std::vector<int> capacity(4, 4);
  const auto placement = place_cluster(capacity, 8);
  std::set<int> nodes(placement.begin(), placement.end());
  EXPECT_EQ(nodes.size(), 4u);  // 8 VMs over 4 nodes: 2 each
  for (int c : capacity) EXPECT_EQ(c, 2);
}

TEST(ApproachTest, NamesAndCount) {
  EXPECT_EQ(all_approaches().size(), 8u);
  EXPECT_EQ(approach_name(Approach::kCR), "CR");
  EXPECT_EQ(approach_name(Approach::kATC), "ATC");
  EXPECT_EQ(approach_name(Approach::kVS), "VS");
  EXPECT_EQ(approach_name(Approach::kPM), "PM");
  EXPECT_EQ(approach_name(Approach::kATCPM), "ATC+PM");
  // Out-of-range values abort loudly instead of returning a silent "?".
  EXPECT_DEATH(approach_name(static_cast<Approach>(99)), "invalid Approach");
}

TEST(ScenarioTest, IdenticalClustersBuildTypeALayout) {
  auto sp = ScenarioBuilder{}.nodes(2).approach(Approach::kCR).build();
  Scenario& s = *sp;
  build_type_a(s, "cg", workload::NpbClass::kB);
  // 4 clusters x 2 VMs + 2 dom0 = 10 VMs.
  EXPECT_EQ(s.platform().vm_count(), 10u);
  EXPECT_EQ(s.bsp_keys().size(), 4u);
  int parallel = 0;
  for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
    parallel += s.platform().vm(virt::VmId{(int)i}).is_parallel();
  }
  EXPECT_EQ(parallel, 8);
}

TEST(ScenarioTest, TypeBBuildsPaperConfiguration) {
  auto sp = ScenarioBuilder{}.nodes(32).approach(Approach::kCR).build();
  Scenario& s = *sp;
  const TypeBLayout layout = build_type_b(s);
  EXPECT_EQ(layout.vc_keys.size(), 10u);
  EXPECT_EQ(layout.independent_keys.size(), 30u);  // 128 - 98 (paper: "30")
  // Full platform: 128 guests + 32 dom0.
  EXPECT_EQ(s.platform().vm_count(), 160u);
  // Every guest VM slot used, none over capacity.
  std::vector<int> per_node(32, 0);
  for (std::size_t i = 0; i < s.platform().vm_count(); ++i) {
    auto& vm = s.platform().vm(virt::VmId{(int)i});
    if (!vm.is_dom0()) per_node[static_cast<std::size_t>(vm.node().index())]++;
  }
  for (int c : per_node) EXPECT_EQ(c, 4);
}

TEST(ScenarioTest, TypeBDeterministicPerSeed) {
  auto keys = [](std::uint64_t seed) {
    auto s = ScenarioBuilder{}.nodes(32).seed(seed).build();
    return build_type_b(*s).vc_keys;
  };
  EXPECT_EQ(keys(1), keys(1));
  EXPECT_NE(keys(1), keys(2));  // app draws differ
}

TEST(ScenarioTest, MixedLayoutContainsEveryAppKind) {
  auto sp = ScenarioBuilder{}.nodes(32).build();
  Scenario& s = *sp;
  const MixedLayout layout = build_mixed(s);
  EXPECT_EQ(layout.vc_keys.size(), 10u);
  EXPECT_FALSE(layout.web_keys.empty());
  EXPECT_FALSE(layout.disk_keys.empty());
  EXPECT_FALSE(layout.stream_keys.empty());
  EXPECT_FALSE(layout.cpu_keys.empty());
  EXPECT_FALSE(layout.ping_keys.empty());
  EXPECT_FALSE(layout.independent_parallel_keys.empty());
}

TEST(ScenarioTest, RunsEndToEndWithEveryApproach) {
  for (Approach a : all_approaches()) {
    SCOPED_TRACE(approach_name(a));
    auto sp = ScenarioBuilder{}
                  .nodes(2)
                  .vms_per_node(2)
                  .vcpus_per_vm(2)
                  .pcpus_per_node(2)
                  .approach(a)
                  .build();
    Scenario& s = *sp;
    workload::BspConfig cfg;
    cfg.compute_per_superstep = 2_ms;
    auto vms = s.create_cluster_vms("vc", {0, 0});
    s.add_bsp_app("vc", workload::Descriptor::from_bsp(cfg), std::move(vms));
    s.start();

    // What install_approach maps each approach to, per node.
    const cluster::ApproachRuntime& rt = s.approach_runtime();
    const std::size_t nodes = s.platform().nodes().size();
    const bool atc = a == Approach::kATC || a == Approach::kATCPM;
    const bool pm = a == Approach::kPM || a == Approach::kATCPM;
    EXPECT_EQ(rt.coschedulers.size(), a == Approach::kCS ? nodes : 0u);
    EXPECT_EQ(rt.dss_controllers.size(), a == Approach::kDSS ? nodes : 0u);
    EXPECT_EQ(rt.atc_controllers.size(), atc ? nodes : 0u);
    EXPECT_EQ(rt.rebalancer != nullptr, pm);
    const std::type_info& want =
        a == Approach::kCS   ? typeid(sched::CoScheduler)
        : a == Approach::kVS ? typeid(sched::VSlicerScheduler)
                             : typeid(sched::CreditScheduler);
    for (const auto& node : s.platform().nodes()) {
      const virt::Scheduler& installed = node->scheduler();
      EXPECT_TRUE(typeid(installed) == want) << typeid(installed).name();
    }

    s.warmup_and_measure(300_ms, 700_ms);
    EXPECT_GT(s.mean_superstep("vc"), 0.0) << approach_name(a);
  }
}

TEST(ScenarioTest, WarmupResetExcludesEarlySamples) {
  auto sp = ScenarioBuilder{}
                .nodes(1)
                .vms_per_node(2)
                .vcpus_per_vm(2)
                .pcpus_per_node(2)
                .build();
  Scenario& s = *sp;
  workload::BspConfig cfg;
  cfg.compute_per_superstep = 2_ms;
  auto vms = s.create_cluster_vms("vc", {0, 0});
  s.add_bsp_app("vc", workload::Descriptor::from_bsp(cfg), std::move(vms));
  s.start();
  s.run_for(500_ms);
  const auto before = s.metrics().durations("vc/superstep").count();
  EXPECT_GT(before, 0u);
  s.metrics().reset_all();
  s.reset_platform_stats();
  EXPECT_EQ(s.metrics().durations("vc/superstep").count(), 0u);
  EXPECT_EQ(s.avg_parallel_spin_latency(), 0.0);
}

TEST(ScenarioTest, MeanSuperstepPrefixAveragesClusters) {
  auto sp = ScenarioBuilder{}.nodes(2).build();
  Scenario& s = *sp;
  build_type_a(s, "bt", workload::NpbClass::kB);
  s.start();
  s.warmup_and_measure(500_ms, 2_s);
  const double avg = s.mean_superstep_with_prefix("bt.B");
  EXPECT_GT(avg, 0.0);
  // The average lies within the per-cluster range.
  double lo = 1e9, hi = 0;
  for (const auto& key : s.bsp_keys()) {
    const double m = s.mean_superstep(key);
    lo = std::min(lo, m);
    hi = std::max(hi, m);
  }
  EXPECT_GE(avg, lo);
  EXPECT_LE(avg, hi);
}

// Reading a key that nothing records under creates no recorder, so the
// registry (and what reset_all() walks) stays as the scenario built it.
TEST(ScenarioTest, MeanSuperstepOfUnknownKeyCreatesNoRecorder) {
  auto sp = ScenarioBuilder{}.nodes(1).build();
  Scenario& s = *sp;
  EXPECT_EQ(s.mean_superstep("nope"), 0.0);
  EXPECT_FALSE(s.metrics().has_durations("nope/superstep"));
}

#if ATCSIM_TRACE_ENABLED

// ScenarioBuilder is the only construction path; two builds from identical
// inputs have to yield an identical engine, which the structured trace
// verifies byte-for-byte — a far stronger oracle than spot-checking a few
// aggregate metrics.
TEST(ScenarioBuilderTest, IdenticalInputsProduceIdenticalRuns) {
  auto run = [] {
    auto s = ScenarioBuilder{}
                 .nodes(2)
                 .pcpus_per_node(2)
                 .vms_per_node(2)
                 .vcpus_per_vm(2)
                 .approach(Approach::kATC)
                 .seed(11)
                 .build();
    obs::TraceConfig cfg;
    cfg.capacity = 0;
    s->enable_tracing(cfg);
    build_type_a(*s, "lu", workload::NpbClass::kA);
    s->start();
    s->run_for(30_ms);
    std::ostringstream os;
    obs::write_compact(os, s->trace_sinks());
    return std::make_pair(os.str(), s->simulation().events_executed());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.second, second.second)
      << "event counts diverged between identical builder runs";
  EXPECT_TRUE(first.first == second.first)
      << "traces diverged between identical builder runs";
  EXPECT_FALSE(first.first.empty());
}

#endif  // ATCSIM_TRACE_ENABLED

}  // namespace
}  // namespace atcsim::cluster
