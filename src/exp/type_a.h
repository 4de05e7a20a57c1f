// Evaluation type A as one typed cell.
//
// Most figures sweep the paper's type-A layout (four identical virtual
// clusters of one code, one VM per node per cluster, four VMs per 8-PCPU
// node) over slice, cluster size, approach or model parameters.  A figure
// lists its TypeACells, runs them through sim::parallel_for (each call
// builds and runs its own single-threaded Scenario) and prints its tables
// from the typed results once every cell has finished.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "atc/config.h"
#include "cluster/approach.h"
#include "simcore/time.h"
#include "virt/params.h"
#include "workload/descriptor.h"
#include "workload/npb_profiles.h"

namespace atcsim::exp {

struct TypeACell {
  std::string app = "lu";
  workload::NpbClass cls = workload::NpbClass::kB;
  /// Replaces the NPB profile: app and cls are then ignored, and the
  /// superstep mean covers the descriptor's clusters.
  std::optional<workload::Descriptor> workload;
  cluster::Approach approach = cluster::Approach::kCR;
  int nodes = 2;
  int vcpus = 8;  ///< per VM; 16 on 8 PCPUs is the motivation layout
  int shards = 1;
  virt::ModelParams params;
  /// Fixed slice set on every guest VM after start (the Fig. 5 global
  /// "xl sched-credit -t" control); unset leaves slices to the approach.
  std::optional<sim::SimTime> slice;
  std::uint64_t seed = 42;
  sim::SimTime warmup = sim::kSecond;
  sim::SimTime measure = 5 * sim::kSecond;
  /// Non-empty: trace the run, check its invariants, and write
  /// `<trace_stem>.trace` and `<trace_stem>.json` under $ATCSIM_TRACE_DIR
  /// (default "traces/").
  std::string trace_stem;
};

struct TypeAResult {
  double superstep_s = 0;     ///< mean superstep of the cell's clusters
  double spin_s = 0;          ///< avg parallel spin latency per episode
  double llc_miss_per_s = 0;  ///< platform LLC misses per simulated second
  std::uint64_t events = 0;
  std::uint64_t trace_events = 0;  ///< 0 unless traced

  bool operator==(const TypeAResult&) const = default;
};

/// Builds, runs and measures one cell; distinct calls may run on distinct
/// threads.  Throws std::invalid_argument for a shape ScenarioBuilder
/// rejects or an unknown app, and std::runtime_error naming the stem and
/// the directory when a traced cell cannot write its trace files.
TypeAResult run_type_a(const TypeACell& cell,
                       const atc::AtcConfig& atc_cfg = {});

/// Seed of repetition `rep`: rep 0 uses `base` verbatim (so one-rep runs
/// keep their figures), later reps get independent SplitMix64 streams.
std::uint64_t rep_seed(std::uint64_t base, int rep);

}  // namespace atcsim::exp
