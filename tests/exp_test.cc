// Experiment-runner subsystem: grid expansion, seed determinism, the
// ScenarioBuilder contract, the runner's run-every-trial and drain-then-
// rethrow contracts, the serial-vs-parallel byte-identity guarantee the
// emitters provide, and the two environment variables the benches read
// (ATCSIM_BENCH_SCALE, ATCSIM_RESULTS_DIR).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "exp/sweep.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;

exp::SweepSpec small_grid() {
  exp::SweepSpec spec;
  spec.name = "exp_test";
  spec.apps = {"lu", "is"};
  spec.classes = {workload::NpbClass::kA};
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kATC};
  spec.nodes = {2};
  spec.vcpus_per_vm = {4};
  spec.slices = {exp::kAdaptiveSlice, 6_ms};
  spec.seeds = {7, 8};
  spec.repetitions = 2;
  return spec;
}

TEST(SweepSpecTest, ExpandProducesFullGridWithStableIds) {
  const exp::SweepSpec spec = small_grid();
  const auto trials = exp::expand(spec);
  EXPECT_EQ(spec.grid_size(), 2u * 2u * 2u * 2u * 2u);
  ASSERT_EQ(trials.size(), spec.grid_size());
  for (std::size_t i = 0; i < trials.size(); ++i) {
    EXPECT_EQ(trials[i].id, static_cast<int>(i));
  }
  // apps outermost, repetitions innermost.
  EXPECT_EQ(trials[0].app, "lu");
  EXPECT_EQ(trials[0].rep, 0);
  EXPECT_EQ(trials[1].rep, 1);
  EXPECT_EQ(trials[trials.size() - 1].app, "is");
}

TEST(SweepSpecTest, ExpansionAndSeedsAreDeterministic) {
  const exp::SweepSpec spec = small_grid();
  const auto a = exp::expand(spec);
  const auto b = exp::expand(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed(), b[i].seed()) << i;
    EXPECT_EQ(a[i].label(), b[i].label()) << i;
  }
}

TEST(SweepSpecTest, RepZeroUsesBaseSeedAndRepsDiverge) {
  exp::SweepSpec spec = small_grid();
  spec.repetitions = 3;
  const auto trials = exp::expand(spec);
  EXPECT_EQ(trials[0].seed(), trials[0].base_seed);
  EXPECT_NE(trials[1].seed(), trials[0].seed());
  EXPECT_NE(trials[2].seed(), trials[1].seed());
}

// Traced trials name their artifacts by label, so two cells of one grid
// must never share a label.
TEST(SweepSpecTest, LabelDistinguishesEveryCell) {
  const auto trials = exp::expand(small_grid());
  std::set<std::string> labels;
  for (const exp::Trial& t : trials) {
    EXPECT_TRUE(labels.insert(t.label()).second) << t.label();
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

exp::TrialResult fake_trial(const exp::Trial& t,
                            std::atomic<int>* invocations) {
  invocations->fetch_add(1);
  exp::TrialResult r;
  r.trial_id = t.id;
  r.metrics["value"] = static_cast<double>(t.id) * 1.5;
  r.metrics["seed"] = static_cast<double>(t.seed());
  return r;
}

TEST(RunnerTest, RerunExecutesEveryTrial) {
  const exp::SweepSpec spec = small_grid();
  exp::RunOptions opts;
  opts.progress = false;
  std::atomic<int> invocations{0};
  auto fn = [&](const exp::Trial& t) { return fake_trial(t, &invocations); };
  const auto first = exp::run_sweep(spec, fn, opts);
  const auto second = exp::run_sweep(spec, fn, opts);
  EXPECT_EQ(invocations.load(), 2 * static_cast<int>(spec.grid_size()));
  ASSERT_EQ(first.size(), spec.grid_size());
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].trial_id, static_cast<int>(i));
    EXPECT_EQ(second[i].metrics, first[i].metrics);
  }
}

TEST(RunnerTest, TrialExceptionPropagatesAfterDrain) {
  const exp::SweepSpec spec = small_grid();
  for (std::size_t threads : {1u, 2u}) {
    exp::RunOptions opts;
    opts.progress = false;
    opts.threads = threads;
    std::vector<std::atomic<int>> calls(spec.grid_size());
    auto fn = [&](const exp::Trial& t) -> exp::TrialResult {
      calls[static_cast<std::size_t>(t.id)].fetch_add(1);
      if (t.id == 3) throw std::runtime_error("trial 3 exploded");
      if (t.id == 9) throw std::logic_error("trial 9 exploded");
      return exp::TrialResult{};
    };
    try {
      exp::run_sweep(spec, fn, opts);
      ADD_FAILURE() << "threads=" << threads << ": sweep did not throw";
    } catch (const std::exception& e) {
      EXPECT_STREQ(e.what(), "trial 3 exploded") << "threads=" << threads;
    }
    for (std::size_t i = 0; i < calls.size(); ++i) {
      EXPECT_EQ(calls[i].load(), 1) << "threads=" << threads << " trial " << i;
    }
  }
}

// The acceptance-criterion regression test: a 2-thread parallel sweep of a
// real (small) spec serializes to exactly the same JSONL bytes as a serial
// run of the same spec.
TEST(RunnerTest, ParallelMatchesSerialByteForByte) {
  exp::SweepSpec spec;
  spec.name = "exp_test_determinism";
  spec.apps = {"lu"};
  spec.classes = {workload::NpbClass::kA};
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kATC};
  spec.nodes = {2};
  spec.vcpus_per_vm = {4};
  spec.vms_per_node = 2;
  spec.slices = {exp::kAdaptiveSlice, 6_ms};
  spec.seeds = {42};
  spec.warmup = 200_ms;
  spec.measure = 500_ms;

  auto fn = [](const exp::Trial& t) { return exp::run_type_a_trial(t); };

  exp::RunOptions serial;
  serial.threads = 1;
  serial.progress = false;
  exp::RunOptions parallel;
  parallel.threads = 2;
  parallel.progress = false;

  const auto serial_results = exp::run_sweep(spec, fn, serial);
  const auto parallel_results = exp::run_sweep(spec, fn, parallel);

  std::ostringstream serial_jsonl, parallel_jsonl;
  exp::write_jsonl(serial_jsonl, spec, serial_results);
  exp::write_jsonl(parallel_jsonl, spec, parallel_results);
  EXPECT_FALSE(serial_jsonl.str().empty());
  EXPECT_EQ(serial_jsonl.str(), parallel_jsonl.str());

  std::ostringstream serial_csv, parallel_csv;
  exp::write_csv(serial_csv, spec, serial_results);
  exp::write_csv(parallel_csv, spec, parallel_results);
  EXPECT_EQ(serial_csv.str(), parallel_csv.str());
}

TEST(EmitTest, JsonlRowShape) {
  const auto trials = exp::expand(small_grid());
  exp::TrialResult r;
  r.trial_id = trials[0].id;
  r.metrics["superstep_s"] = 0.125;
  const std::string row = exp::jsonl_row(trials[0], r);
  EXPECT_NE(row.find("\"trial\":0"), std::string::npos);
  EXPECT_NE(row.find("\"app\":\"lu\""), std::string::npos);
  EXPECT_NE(row.find("\"approach\":\"CR\""), std::string::npos);
  EXPECT_NE(row.find("\"slice_ms\":null"), std::string::npos);
  EXPECT_NE(row.find("\"superstep_s\":0.125"), std::string::npos);
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

/// A fresh, empty directory under the system temp dir, removed on exit.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "atcsim_exp_XXXXXX")
            .string();
    if (mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp");
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A two-trial spec (CR and ATC) with hand-made results.
exp::SweepSpec two_trial_spec(const std::string& name) {
  exp::SweepSpec spec;
  spec.name = name;
  spec.approaches = {cluster::Approach::kCR, cluster::Approach::kATC};
  return spec;
}

std::vector<exp::TrialResult> two_trial_results() {
  std::vector<exp::TrialResult> results(2);
  results[0].trial_id = 0;
  results[0].metrics["superstep_s"] = 0.5;
  results[1].trial_id = 1;
  results[1].metrics["superstep_s"] = 0.25;
  results[1].metrics["spin_s"] = 0.001;
  return results;
}

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

TEST(EmitTest, ResultsEnvWritesJsonlAndCsv) {
  const TempDir tmp;
  const std::filesystem::path dir = tmp.path() / "results";  // not yet made
  ScopedEnv env("ATCSIM_RESULTS_DIR");
  env.set(dir.string());
  const exp::SweepSpec spec = two_trial_spec("emit_env");
  const auto results = two_trial_results();
  exp::emit_results_env(spec, results);

  std::ostringstream jsonl;
  exp::write_jsonl(jsonl, spec, results);
  EXPECT_EQ(read_file(dir / "emit_env.jsonl"), jsonl.str());

  std::istringstream csv(read_file(dir / "emit_env.csv"));
  std::vector<std::string> lines;
  for (std::string line; std::getline(csv, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + one row per trial
  EXPECT_EQ(lines[0].rfind("trial,app,class,approach,", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("0,lu,B,CR,", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("1,lu,B,ATC,", 0), 0u) << lines[2];
}

TEST(EmitTest, EmptyResultsEnvWritesNothing) {
  const TempDir tmp;
  ScopedEnv env("ATCSIM_RESULTS_DIR");
  env.set("");
  // An absolute spec name: a write despite the empty value would land in
  // the temp dir.
  exp::emit_results_env(two_trial_spec((tmp.path() / "emit_env").string()),
                        two_trial_results());
  EXPECT_TRUE(std::filesystem::is_empty(tmp.path()));
}

}  // namespace
}  // namespace atcsim
