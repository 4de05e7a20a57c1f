// Golden-trace regression tests.
//
// A fixed-seed scenario's compact trace is a byte-stable fingerprint of the
// whole simulation: event order, scheduler decisions, controller actions and
// I/O hops.  Any unintended behaviour change shows up as a trace diff long
// before it moves an aggregate metric.  Golden files live in tests/golden/
// and are regenerated by running this binary with ATCSIM_UPDATE_GOLDEN=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "obs/export.h"
#include "simcore/parallel.h"

#ifndef ATCSIM_GOLDEN_DIR
#define ATCSIM_GOLDEN_DIR "tests/golden"
#endif

namespace atcsim {
namespace {

namespace fs = std::filesystem;
using namespace sim::time_literals;

#if ATCSIM_TRACE_ENABLED

/// PCPUs and guest VMs per node, and VCPUs per VM, of a traced run.
struct NodeShape {
  int pcpus = 2;
  int vms = 2;
  int vcpus_per_vm = 2;
};

// One small but fully featured scenario: two nodes, BSP clusters spanning
// them (network + spin synchronization), plus the scheduler and — under
// kATC — controller activity.  40 ms covers one 30 ms accounting period, so
// credit refills appear in the trace.
template <typename BuildFn>
std::string run_traced_with(cluster::Approach approach, std::uint64_t seed,
                            BuildFn build, sim::SimTime span = 40_ms,
                            NodeShape shape = {}) {
  obs::TraceConfig cfg;
  cfg.capacity = 0;  // golden traces must not wrap
  auto s = cluster::ScenarioBuilder{}
               .nodes(2)
               .pcpus_per_node(shape.pcpus)
               .vms_per_node(shape.vms)
               .vcpus_per_vm(shape.vcpus_per_vm)
               .approach(approach)
               .seed(seed)
               .tracing(cfg)
               .check_invariants()
               .build();
  build(*s);
  s->start();
  s->run_for(span);
  EXPECT_TRUE(s->invariants()->violations().empty());
  std::ostringstream os;
  obs::write_compact(os, s->trace_sinks());
  return os.str();
}

std::string run_traced(cluster::Approach approach, std::uint64_t seed,
                       sim::SimTime span = 40_ms) {
  return run_traced_with(
      approach, seed,
      [](cluster::Scenario& s) {
        cluster::build_type_a(s, "lu", workload::NpbClass::kA);
      },
      span);
}

bool update_requested() {
  const char* env = std::getenv("ATCSIM_UPDATE_GOLDEN");
  return env != nullptr && std::string(env) != "0";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void check_against_golden(const std::string& name, const std::string& trace) {
  const fs::path path = fs::path(ATCSIM_GOLDEN_DIR) / name;
  if (update_requested()) {
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << trace;
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    GTEST_SKIP() << "golden updated: " << path;
  }
  ASSERT_TRUE(fs::exists(path))
      << path << " missing; regenerate with ATCSIM_UPDATE_GOLDEN=1";
  const std::string golden = read_file(path);
  ASSERT_EQ(golden.size(), trace.size())
      << "trace size diverged from " << path
      << "; inspect the diff and regenerate with ATCSIM_UPDATE_GOLDEN=1 if "
         "the change is intentional";
  EXPECT_TRUE(golden == trace)
      << "trace bytes diverged from " << path
      << "; inspect the diff and regenerate with ATCSIM_UPDATE_GOLDEN=1 if "
         "the change is intentional";
}

TEST(GoldenTraceTest, CreditBaselineMatchesGolden) {
  check_against_golden("lu_a_cr_seed42.trace",
                       run_traced(cluster::Approach::kCR, 42));
}

TEST(GoldenTraceTest, AtcMatchesGolden) {
  check_against_golden("lu_a_atc_seed7.trace",
                       run_traced(cluster::Approach::kATC, 7));
}

// The other credit-family approaches: Balance placement, vSlicer's micro
// slice for latency-sensitive guests, and co-scheduling's gang dispatch.
// A gang is marked from one whole period's spin, so the CS run spans three
// periods: its trace leaves CR's at the first gang launch, near 40 ms.
TEST(GoldenTraceTest, BalanceSchedulingMatchesGolden) {
  check_against_golden("lu_a_bs_seed42.trace",
                       run_traced(cluster::Approach::kBS, 42));
}

TEST(GoldenTraceTest, VSlicerMatchesGolden) {
  check_against_golden("lu_a_vs_seed42.trace",
                       run_traced(cluster::Approach::kVS, 42));
}

TEST(GoldenTraceTest, CoSchedulingMatchesGolden) {
  check_against_golden("lu_a_cs_seed42.trace",
                       run_traced(cluster::Approach::kCS, 42, 100_ms));
}

// The benchmark's node shape on two nodes: 8 PCPUs and 4 VMs x 8 VCPUs per
// node, lu.B under ATC.  The other goldens run two PCPUs per node; this one
// pins eight run queues per steal scan and eight PCPUs' engine timers, over
// three accounting periods.
TEST(GoldenTraceTest, BenchmarkNodeShapeMatchesGolden) {
  const std::string trace = run_traced_with(
      cluster::Approach::kATC, 42,
      [](cluster::Scenario& s) {
        cluster::build_type_a(s, "lu", workload::NpbClass::kB);
      },
      100_ms, NodeShape{8, 4, 8});
  check_against_golden("lu_b_atc_8x4x8_seed42.trace", trace);
}

TEST(GoldenTraceTest, PhaseMixDescriptorMatchesGolden) {
  // Exercises every phase kind the classic BSP shapes never emit (think,
  // io, send) inside one traced scenario, pinning the new interpreter paths
  // byte-for-byte.
  const workload::Descriptor mix = workload::Descriptor::parse(
      "workload mix\n"
      "phase compute 800us jitter=0.1\n"
      "phase send 8KiB\n"
      "phase local_barrier\n"
      "phase io 16KiB\n"
      "phase think 300us\n"
      "phase compute 500us\n"
      "phase barrier 24KiB\n");
  const std::string trace = run_traced_with(
      cluster::Approach::kCR, 11,
      [&](cluster::Scenario& s) { cluster::build_type_a(s, mix); });
  check_against_golden("descriptor_mix_cr_seed11.trace", trace);
}

TEST(GoldenTraceTest, SerialRerunIsByteIdentical) {
  const std::string a = run_traced(cluster::Approach::kCR, 42);
  const std::string b = run_traced(cluster::Approach::kCR, 42);
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(a == b) << "same seed must reproduce the trace byte-for-byte";
}

TEST(GoldenTraceTest, DifferentSeedsProduceDifferentTraces) {
  EXPECT_FALSE(run_traced(cluster::Approach::kCR, 42) ==
               run_traced(cluster::Approach::kCR, 43));
}

TEST(GoldenTraceTest, ParallelForRunsMatchSerialByteForByte) {
  // Simulations are single-threaded but sweeps fan scenarios out through
  // parallel_for; concurrency must not leak into the trace.
  const std::string serial = run_traced(cluster::Approach::kCR, 42);
  std::vector<std::string> parallel(4);
  sim::parallel_for(
      parallel.size(),
      [&parallel](std::size_t i) {
        parallel[i] = run_traced(cluster::Approach::kCR, 42);
      },
      4);
  for (const std::string& p : parallel) {
    EXPECT_TRUE(p == serial)
        << "trace from a parallel_for run diverged from the serial run";
  }
}

#else

TEST(GoldenTraceTest, SkippedWithoutTracing) {
  GTEST_SKIP() << "built with ATCSIM_ENABLE_TRACE=OFF";
}

#endif  // ATCSIM_TRACE_ENABLED

}  // namespace
}  // namespace atcsim
