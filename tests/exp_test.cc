// Experiment library: the type-A cell (its rep-seed rule and its
// thread-count independence under sim::parallel_for), the ScenarioBuilder
// contract, and the ATCSIM_BENCH_SCALE knob the benches read.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "exp/bench_util.h"
#include "exp/type_a.h"
#include "simcore/parallel.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

TEST(TypeATest, RepZeroUsesTheBaseSeedAndRepsDiverge) {
  EXPECT_EQ(exp::rep_seed(7, 0), 7u);
  EXPECT_NE(exp::rep_seed(7, 1), exp::rep_seed(7, 0));
  EXPECT_NE(exp::rep_seed(7, 2), exp::rep_seed(7, 1));
  // Each rep's stream depends on the base seed.
  EXPECT_NE(exp::rep_seed(8, 1), exp::rep_seed(7, 1));
}

// Three small lu.A cells give the same results at parallel_for thread
// counts 1 and 2: a cell shares no state with the cells running beside it.
TEST(TypeATest, ParallelCellsMatchSerialCells) {
  exp::TypeACell base;
  base.cls = workload::NpbClass::kA;
  base.nodes = 2;
  base.vcpus = 4;
  base.warmup = 200_ms;
  base.measure = 500_ms;
  std::vector<exp::TypeACell> cells(3, base);
  cells[1].slice = 6_ms;
  cells[2].approach = cluster::Approach::kATC;

  auto run_all = [&](std::size_t threads) {
    std::vector<exp::TypeAResult> results(cells.size());
    sim::parallel_for(
        cells.size(),
        [&](std::size_t i) { results[i] = exp::run_type_a(cells[i]); },
        threads);
    return results;
  };
  const auto serial = run_all(1);
  const auto parallel = run_all(2);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_GT(serial[i].events, 0u) << i;
    EXPECT_EQ(serial[i], parallel[i]) << i;
  }
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
