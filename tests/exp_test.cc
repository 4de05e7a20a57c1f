// Experiment library: the evaluation cell (its rep-seed rule, its result
// snapshot and its thread-count independence under exp::run_cells), the
// ScenarioBuilder contract, and the ATCSIM_BENCH_SCALE knob the benches
// read.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/cell.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

TEST(CellTest, RepZeroUsesTheBaseSeedAndRepsDiverge) {
  EXPECT_EQ(exp::rep_seed(7, 0), 7u);
  EXPECT_NE(exp::rep_seed(7, 1), exp::rep_seed(7, 0));
  EXPECT_NE(exp::rep_seed(7, 2), exp::rep_seed(7, 1));
  // Each rep's stream depends on the base seed.
  EXPECT_NE(exp::rep_seed(8, 1), exp::rep_seed(7, 1));
}

/// The keys of a result's map (or of its supersteps), sorted.
template <typename Entries>
std::set<std::string> keys_of(const Entries& entries) {
  std::set<std::string> keys;
  for (const auto& [key, value] : entries) keys.insert(key);
  return keys;
}

// Four small cells give the same results at run_cells thread counts 1 and
// 2: a cell shares no state with the cells running beside it.  The fourth,
// a mixed cell under PM, records rates and latencies and migrates guests,
// so every field is compared.
TEST(CellTest, ParallelCellsMatchSerialCells) {
  exp::Cell base =
      exp::type_a(workload::npb_descriptor("lu", workload::NpbClass::kA));
  base.builder.nodes(2).vcpus_per_vm(4).seed(42);
  base.warmup = 200_ms;
  base.measure = 500_ms;
  std::vector<exp::Cell> cells(4, base);
  cells[1].slice = 6_ms;
  cells[2].builder.approach(cluster::Approach::kATC);
  cells[3].builder.nodes(32).approach(cluster::Approach::kPM);
  cells[3].layout = [](cluster::Scenario& s) { cluster::build_mixed(s); };

  const auto serial = exp::run_cells(cells, 1);
  const auto parallel = exp::run_cells(cells, 2);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const exp::CellResult& a = serial[i];
    const exp::CellResult& b = parallel[i];
    EXPECT_GT(a.events, 0u) << i;
    EXPECT_EQ(a.supersteps, b.supersteps) << i;
    EXPECT_EQ(a.rates, b.rates) << i;
    EXPECT_EQ(keys_of(a.latencies), keys_of(b.latencies)) << i;
    for (const auto& [key, x] : a.latencies) {  // count, sum and tail
      const metrics::DurationRecorder& y = b.latencies.at(key);
      EXPECT_EQ(std::tuple(x.count(), x.stats().sum(), x.p99_seconds()),
                std::tuple(y.count(), y.stats().sum(), y.p99_seconds()))
          << i << key;
    }
    EXPECT_EQ(a.spin_s, b.spin_s) << i;
    EXPECT_EQ(a.llc_miss_per_s, b.llc_miss_per_s) << i;
    EXPECT_EQ(a.events, b.events) << i;
    EXPECT_EQ(a.migrations, b.migrations) << i;
    EXPECT_EQ(a.trace_events, b.trace_events) << i;
  }
  EXPECT_FALSE(serial[3].rates.empty() || serial[3].latencies.empty());
}

// The snapshot keeps what the registry holds: supersteps in creation order
// (so "VC10:..." follows "VC9:...", where a std::map would put it after
// "VC1:..."), and every rate counter and latency recorder by key.  The
// mixed layout's keys name every recorder its guests create.
TEST(CellTest, SnapshotHoldsEveryKeyInCreationOrder) {
  cluster::MixedLayout l;
  exp::Cell cell;
  cell.builder.nodes(32).seed(42);
  cell.layout = [&l](cluster::Scenario& s) { l = cluster::build_mixed(s); };
  cell.warmup = 10_ms;
  cell.measure = 40_ms;
  const exp::CellResult r = exp::run_cells({cell}).front();

  std::vector<std::string> bsp_keys = l.vc_keys;
  bsp_keys.insert(bsp_keys.end(), l.independent_parallel_keys.begin(),
                  l.independent_parallel_keys.end());
  std::vector<std::string> superstep_keys;
  for (const auto& [key, mean] : r.supersteps) superstep_keys.push_back(key);
  EXPECT_EQ(superstep_keys, bsp_keys);
  EXPECT_EQ(superstep_keys.at(9).rfind("VC10:", 0), 0u) << superstep_keys[9];

  // Loop and disk guests count rates; web and ping guests record latencies.
  std::set<std::string> rate_keys(l.disk_keys.begin(), l.disk_keys.end());
  rate_keys.insert(l.stream_keys.begin(), l.stream_keys.end());
  rate_keys.insert(l.cpu_keys.begin(), l.cpu_keys.end());
  std::set<std::string> latency_keys(l.web_keys.begin(), l.web_keys.end());
  latency_keys.insert(l.ping_keys.begin(), l.ping_keys.end());
  EXPECT_FALSE(rate_keys.empty() || latency_keys.empty());
  EXPECT_EQ(keys_of(r.rates), rate_keys);
  EXPECT_EQ(keys_of(r.latencies), latency_keys);
}

TEST(ScenarioBuilderTest, RejectsNonPositiveCounts) {
  EXPECT_THROW(cluster::ScenarioBuilder{}.nodes(0).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.nodes(-3).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.vcpus_per_vm(-1).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.vms_per_node(0).validated(),
               std::invalid_argument);
  EXPECT_THROW(cluster::ScenarioBuilder{}.pcpus_per_node(0).validated(),
               std::invalid_argument);
  // Too many, too: a VCPU's run-queue link stores the PCPU index in 16 bits.
  try {
    cluster::ScenarioBuilder{}.pcpus_per_node(32768).validated();
    ADD_FAILURE() << "pcpus_per_node(32768) was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pcpus_per_node"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
  EXPECT_NO_THROW(cluster::ScenarioBuilder{}.pcpus_per_node(32767).validated());
}

TEST(ScenarioBuilderTest, RejectsWideVmsUnlessAllowed) {
  auto wide = cluster::ScenarioBuilder{}.pcpus_per_node(8).vcpus_per_vm(16);
  EXPECT_THROW(wide.validated(), std::invalid_argument);
  EXPECT_NO_THROW(wide.allow_wide_vms().validated());
}

TEST(ScenarioBuilderTest, BuildsConfiguredScenario) {
  auto s = cluster::ScenarioBuilder{}
               .nodes(3)
               .vcpus_per_vm(2)
               .approach(cluster::Approach::kATC)
               .seed(99)
               .build();
  EXPECT_EQ(s->config().nodes, 3);
  EXPECT_EQ(s->config().vcpus_per_vm, 2);
  EXPECT_EQ(s->config().approach, cluster::Approach::kATC);
  EXPECT_EQ(s->config().seed, 99u);
}

/// Sets an environment variable for one scope and restores its previous
/// value (or absence) afterwards.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const std::string& value) { setenv(name_, value.c_str(), 1); }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(BenchUtilTest, ScaleFactorFallsBackToOneOnInvalidValues) {
  ScopedEnv env("ATCSIM_BENCH_SCALE");
  for (const char* bad : {"inf", "1e300", "0", "-3", "abc", "0.5x"}) {
    env.set(bad);
    EXPECT_EQ(exp::scale_factor(), 1.0) << bad;
    EXPECT_EQ(exp::scaled(2_s), 2_s) << bad;
  }
  env.set("0.5");
  EXPECT_EQ(exp::scale_factor(), 0.5);
  EXPECT_EQ(exp::scaled(2_s), 1_s);
}

}  // namespace
}  // namespace atcsim
