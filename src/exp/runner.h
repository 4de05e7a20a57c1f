// Parallel sweep execution.
//
// run_sweep() expands a SweepSpec, runs every trial through
// sim::parallel_for (one single-threaded simulation per worker), reports
// progress/ETA to stderr, and returns results ordered by trial id — so a
// parallel run is byte-identical to a serial run of the same spec.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "exp/sweep.h"

namespace atcsim::exp {

/// Runs one trial and returns its flat metrics.  Must be thread-safe across
/// distinct trials (each call builds its own Scenario) and must not depend
/// on execution order.
using TrialFn = std::function<TrialResult(const Trial&)>;

struct RunOptions {
  /// Worker threads; 0 = hardware concurrency.  1 runs strictly serially
  /// on the calling thread, in trial-id order.
  std::size_t threads = 0;
  /// Progress/ETA line on stderr.
  bool progress = true;
};

/// Executes every trial of `spec` through `fn`; result[i].trial_id == i.
/// Every trial runs even when some throw; the exception of the lowest
/// throwing trial id is then rethrown.
std::vector<TrialResult> run_sweep(const SweepSpec& spec, const TrialFn& fn,
                                   const RunOptions& opts = {});

/// Default trial body: evaluation type A (four identical virtual clusters
/// of trial.app on trial.nodes nodes) via ScenarioBuilder.  A trial slice
/// >= 0 is applied globally to every guest VM after start (the Fig. 5
/// "xl sched-credit -t" control).  Metrics: superstep_s, spin_s,
/// llc_miss_per_s, events.
TrialResult run_type_a_trial(const Trial& t,
                             const atc::AtcConfig& atc_cfg = {});

}  // namespace atcsim::exp
