// One evaluation cell, the unit of every figure, claim, example and CLI
// run: a caller lists its Cells, runs them through run_cells (each builds
// and runs its own single-threaded Scenario) and reads the CellResults.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/scenario.h"
#include "metrics/recorders.h"
#include "simcore/time.h"
#include "workload/descriptor.h"

namespace atcsim::exp {

struct Cell {
  cluster::ScenarioBuilder builder;  ///< shape, approach, params, seed
  /// Lays out the guests between build() and start().  A layout that
  /// hands back its keys writes them into storage owned by this cell
  /// alone: cells run on distinct threads.
  std::function<void(cluster::Scenario&)> layout;
  /// Fixed slice set on every guest VM after start (the Fig. 5 global
  /// "xl sched-credit -t" control); unset leaves slices to the approach.
  std::optional<sim::SimTime> slice;
  sim::SimTime warmup = sim::kSecond;
  sim::SimTime measure = 5 * sim::kSecond;
  /// Non-empty: trace the run, check its invariants, and write
  /// `<trace_stem>.{trace,json}` under $ATCSIM_TRACE_DIR (default traces/).
  std::string trace_stem;
};

/// What one cell's measured window left.
struct CellResult {
  /// Mean superstep seconds of every BSP key, in creation order.
  std::vector<std::pair<std::string, double>> supersteps;
  std::map<std::string, double> rates;  ///< units per simulated second
  std::map<std::string, metrics::DurationRecorder> latencies;
  double spin_s = 0;          ///< avg parallel spin latency per episode
  double llc_miss_per_s = 0;  ///< platform LLC misses per simulated second
  std::uint64_t events = 0;
  std::uint64_t migrations = 0;    ///< started, summed over shards
  std::uint64_t trace_events = 0;  ///< 0 unless traced

  /// Mean superstep seconds of `key`; 0 when the key is unknown.
  double superstep(const std::string& key) const;
  /// Mean of the positive superstep means of the keys starting with
  /// `prefix`, summed in creation order; 0 when none is positive.
  double mean_superstep(const std::string& prefix) const;
};

/// Runs the cells through sim::parallel_for over `threads` workers (0 =
/// the CPUs available) and returns their results in cell order.  Every
/// cell runs; then the lowest failing cell's exception is rethrown:
/// std::invalid_argument for a shape the builder or the layout rejects,
/// std::runtime_error naming the stem and the directory when a traced cell
/// cannot write its trace files.
std::vector<CellResult> run_cells(const std::vector<Cell>& cells,
                                  std::size_t threads = 0);

/// A cell whose layout is the paper's type-A grid of `desc`
/// (cluster::build_type_a); the caller sets the builder and the windows.
Cell type_a(const workload::Descriptor& desc);

/// Seed of repetition `rep`: rep 0 uses `base` verbatim (so one-rep runs
/// keep their figures), later reps get independent SplitMix64 streams.
std::uint64_t rep_seed(std::uint64_t base, int rep);

}  // namespace atcsim::exp
