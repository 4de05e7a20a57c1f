// Invariant-checked scenario fuzzer (DESIGN.md §11).
//
// Each iteration generates a random valid workload descriptor, builds the
// type-A layout from it, and runs the scenario under the runtime invariant
// checker at shard counts {1, 4}, asserting:
//
//  1. zero invariant violations at every shard count (the checker observes
//     the trace, so a build without the trace layer skips this one);
//  2. shard-count metric invariance (superstep / spin / LLC / work-rate are
//     bit-equal between the serial and the 4-shard run);
//  3. deterministic metrics: re-running the same (descriptor, seed) cell
//     reproduces every metric exactly (checked on every 8th case).
//
// On failure the offending descriptor is shrunk with minimize_descriptor()
// (re-running the failing check as the predicate) and the minimized text is
// dumped both into the gtest failure message and as a .wl file under
// $ATCSIM_FUZZ_ARTIFACTS (default "fuzz-failures/"), ready to commit as a
// regression case or upload as a CI artifact.
//
// Iteration count: $ATCSIM_FUZZ_ITERS (default 500 — the quick mode run by
// `ctest -L fuzz`; CI's dedicated fuzz job enlarges it under ASan/UBSan).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "obs/invariants.h"
#include "workload/descriptor.h"
#include "workload/descriptor_fuzz.h"

namespace atcsim {
namespace {

using namespace sim::time_literals;
using cluster::Approach;
using cluster::ScenarioBuilder;
using workload::Descriptor;

/// Per-case platform shape, drawn from the case RNG so every iteration
/// exercises a different (but per-case fixed) layout.
struct Shape {
  int vms_per_node = 1;
  int vcpus = 1;
  Approach approach = Approach::kCR;
};

std::string approach_label(Approach a) { return cluster::approach_name(a); }

struct Outcome {
  bool ok = false;
  std::string error;  // exception text when !ok
  double superstep = 0.0;
  double spin = 0.0;
  double llc = 0.0;
  double rate = 0.0;
  std::uint64_t events = 0;
  std::uint64_t violations = 0;
  std::uint64_t checked = 0;
};

Outcome run_one(const Descriptor& d, const Shape& sh, std::uint64_t seed,
                int shards) {
  Outcome out;
  try {
    ScenarioBuilder b;
    b.nodes(4)
        .pcpus_per_node(2)
        .vms_per_node(sh.vms_per_node)
        .vcpus_per_vm(sh.vcpus)
        .approach(sh.approach)
        .seed(seed)
        .shards(shards)
        .check_invariants();
    auto sp = b.build();
    // Collect violations on shard 0 instead of aborting; the other shards'
    // checkers keep the abort default, which surfaces as an exception and
    // is recorded as a failure below either way.
    if (obs::InvariantChecker* inv = sp->invariants()) {
      inv->set_abort_on_violation(false);
    }
    cluster::build_type_a(*sp, d);
    sp->start();
    sp->warmup_and_measure(10_ms, 40_ms);
    out.superstep = sp->mean_superstep_with_prefix(d.name);
    out.spin = sp->avg_parallel_spin_latency();
    out.llc = sp->llc_miss_rate();
    for (const auto& [key, rate] : sp->metrics().all_rates()) {
      out.rate += rate.units();
    }
    out.events = sp->events_executed();
    if (const obs::InvariantChecker* inv = sp->invariants()) {
      out.violations = inv->violations().size();
      out.checked = inv->events_checked();
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  out.ok = true;
  return out;
}

bool same_metrics(const Outcome& a, const Outcome& b) {
  return a.superstep == b.superstep && a.spin == b.spin && a.llc == b.llc &&
         a.rate == b.rate;
}

/// Runs the full check for one case; returns "" on success or a one-line
/// failure description.  Doubles as the minimizer predicate.
std::string check_case(const Descriptor& d, const Shape& sh,
                       std::uint64_t seed, bool check_determinism) {
  const Outcome serial = run_one(d, sh, seed, 1);
  if (!serial.ok) return "shards=1 run failed: " + serial.error;
  if (serial.violations != 0) {
    return "shards=1: " + std::to_string(serial.violations) +
           " invariant violations";
  }
#if ATCSIM_TRACE_ENABLED
  // The checker is a trace observer, so only a traced build feeds it.
  if (serial.checked == 0) return "invariant checker saw no events";
#endif

  const Outcome sharded = run_one(d, sh, seed, 4);
  if (!sharded.ok) return "shards=4 run failed: " + sharded.error;
  if (sharded.violations != 0) {
    return "shards=4: " + std::to_string(sharded.violations) +
           " invariant violations";
  }
  if (!same_metrics(serial, sharded)) {
    return "shard-count metric divergence (shards 1 vs 4)";
  }

  if (check_determinism) {
    const Outcome again = run_one(d, sh, seed, 1);
    if (!again.ok) return "determinism re-run failed: " + again.error;
    if (!same_metrics(serial, again) || serial.events != again.events) {
      return "nondeterministic metrics for a fixed (descriptor, seed)";
    }
  }
  return "";
}

int fuzz_iterations() {
  if (const char* env = std::getenv("ATCSIM_FUZZ_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 500;
}

std::string artifact_dir() {
  if (const char* env = std::getenv("ATCSIM_FUZZ_ARTIFACTS")) return env;
  return "fuzz-failures";
}

/// Shrinks the failing descriptor and writes the repro to disk + the test
/// log.  The dumped file is a complete descriptor: re-run it with
/// `atcsim_cli --workload <file> --seed <seed> --shards 4`.
void dump_failure(int iter, const Descriptor& d, const Shape& sh,
                  std::uint64_t seed, const std::string& reason) {
  const bool det = iter % 8 == 0;
  const Descriptor min = workload::minimize_descriptor(
      d, [&](const Descriptor& c) {
        return !check_case(c, sh, seed, det).empty();
      });
  std::string repro = "# descriptor_fuzz_test case " + std::to_string(iter) +
                      ": " + reason + "\n" +
                      "# seed=" + std::to_string(seed) +
                      " vms_per_node=" + std::to_string(sh.vms_per_node) +
                      " vcpus=" + std::to_string(sh.vcpus) + " approach=" +
                      approach_label(sh.approach) + "\n" + min.print();
  std::error_code ec;
  std::filesystem::create_directories(artifact_dir(), ec);
  const std::string path =
      artifact_dir() + "/fuzz_case_" + std::to_string(iter) + ".wl";
  if (!ec) {
    std::ofstream out(path);
    out << repro;
  }
  ADD_FAILURE() << "fuzz case " << iter << " failed: " << reason
                << "\nminimized repro (also written to " << path << "):\n"
                << repro;
}

TEST(DescriptorFuzzTest, RandomDescriptorsHoldInvariantsAcrossShardCounts) {
  const int iters = fuzz_iterations();
  const Approach approaches[] = {Approach::kCR, Approach::kCS,
                                 Approach::kATC};
  sim::Rng rng(0xF0220ED5ULL);
  int parallel_cases = 0;
  for (int i = 0; i < iters; ++i) {
    const Descriptor d = workload::fuzz_descriptor(rng);
    ASSERT_EQ(d.validate(), "") << "generator emitted an invalid descriptor";
    parallel_cases += d.parallel() ? 1 : 0;
    Shape sh;
    sh.vms_per_node = static_cast<int>(rng.uniform_int(1, 2));
    sh.vcpus = static_cast<int>(rng.uniform_int(1, 2));
    sh.approach = approaches[rng.uniform_int(0, 2)];
    const std::uint64_t seed = static_cast<std::uint64_t>(
        rng.uniform_int(1, 1'000'000'000));
    const std::string reason = check_case(d, sh, seed, i % 8 == 0);
    if (!reason.empty()) {
      dump_failure(i, d, sh, seed, reason);
      return;  // one minimized repro per run beats a failure cascade
    }
  }
  // The sweep must exercise both interpreter families, or the run is
  // vacuously green for one of them.
  EXPECT_GT(parallel_cases, iters / 4);
  EXPECT_LT(parallel_cases, iters);
}

}  // namespace
}  // namespace atcsim
