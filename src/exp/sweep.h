// Declarative experiment sweeps.
//
// A SweepSpec is the cartesian grid every figure harness used to hand-roll:
// (approach x app x NPB class x nodes x vcpus x slice x seed x repetition).
// expand() turns it into a flat list of independent Trials with stable ids
// and deterministic per-trial seeds; the runner (runner.h) executes them in
// parallel and the emitters (emit.h) serialize the results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/approach.h"
#include "simcore/time.h"
#include "workload/npb_profiles.h"

namespace atcsim::exp {

/// Slice value meaning "leave the slice to the approach" (no global
/// "xl sched-credit -t"-style override).
inline constexpr sim::SimTime kAdaptiveSlice = -1;

/// Cartesian experiment grid.  Every axis is a list; expand() produces the
/// full product in a fixed nesting order (apps outermost, repetitions
/// innermost), so trial ids are stable for a given spec.
struct SweepSpec {
  std::string name = "sweep";  ///< emitter file stem

  /// Workload descriptor text (workload/descriptor.h).  When non-empty it
  /// replaces the apps/classes axes: every trial builds this descriptor
  /// instead of an NPB profile and trial labels use the descriptor's name.
  /// expand() throws workload::DescriptorError on invalid text.
  std::string workload;

  std::vector<std::string> apps = {"lu"};
  std::vector<workload::NpbClass> classes = {workload::NpbClass::kB};
  std::vector<cluster::Approach> approaches = {cluster::Approach::kCR};
  std::vector<int> nodes = {2};
  std::vector<int> vcpus_per_vm = {8};
  std::vector<sim::SimTime> slices = {kAdaptiveSlice};
  std::vector<std::uint64_t> seeds = {42};
  int repetitions = 1;

  int vms_per_node = 4;
  int pcpus_per_node = 8;
  /// Conservative-PDES shard count applied to every trial (1 = classic
  /// single-threaded run).
  int shards = 1;
  sim::SimTime warmup = sim::kSecond;
  sim::SimTime measure = 5 * sim::kSecond;

  /// Capture a structured trace (and run the invariant checker) in every
  /// trial; artifacts land under $ATCSIM_TRACE_DIR (default "traces/"),
  /// named by Trial::label().
  bool trace = false;

  std::size_t grid_size() const;
};

/// One cell of the grid: everything a trial function needs to build and run
/// a Scenario, plus the derived per-trial RNG seed.
struct Trial {
  int id = 0;
  std::string app;
  /// Descriptor text (SweepSpec::workload); empty for NPB-profile
  /// trials.  When set, `app` holds the descriptor's workload name and
  /// `cls` is ignored.
  std::string descriptor;
  workload::NpbClass cls = workload::NpbClass::kB;
  cluster::Approach approach = cluster::Approach::kCR;
  int nodes = 2;
  int vcpus = 8;
  int vms_per_node = 4;
  int pcpus_per_node = 8;
  sim::SimTime slice = kAdaptiveSlice;
  std::uint64_t base_seed = 42;
  int rep = 0;
  int shards = 1;  ///< copied from SweepSpec::shards
  sim::SimTime warmup = sim::kSecond;
  sim::SimTime measure = 5 * sim::kSecond;
  bool trace = false;  ///< copied from SweepSpec::trace

  /// Scenario seed: splitmix of (base_seed, rep), so repetitions are
  /// independent streams and rep 0 of seed S != rep 1 of seed S.
  std::uint64_t seed() const;

  /// Human-readable cell label, e.g. "lu.B/ATC/n8/v8/adaptive/s42/r0".
  /// Traced trials name their artifacts by it.
  std::string label() const;
};

/// Flat metric bundle produced by running one trial.
struct TrialResult {
  int trial_id = -1;
  std::map<std::string, double> metrics;
};

/// Expands the grid; result[i].id == i.
std::vector<Trial> expand(const SweepSpec& spec);

}  // namespace atcsim::exp
