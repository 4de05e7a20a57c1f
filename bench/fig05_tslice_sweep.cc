// Figure 5 (a-f): time-slice sweep for lu, is, sp, bt, mg, cg — average
// spinlock latency and normalized execution time at each slice, plus the
// Pearson correlation between the two series (paper: r > 0.9 everywhere).
//
// Setup per Sec. II-B: two nodes, four 16-VCPU VMs each (8:1 overcommit),
// four identical 2-VM virtual clusters; slices 30, 24, 18, 12, 6, 1, 0.6,
// 0.3, 0.15 and 0.1 ms set globally.
//
// The (app x slice) grid is declared as one exp::SweepSpec and executed in
// parallel through the experiment runner.
#include <cstdio>
#include <iostream>
#include <vector>

#include "report_common.h"
#include "simcore/stats.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 5 — spinlock latency & performance vs time slice",
         "2 nodes x 4x16-VCPU VMs (8:1), four identical virtual clusters");

  exp::SweepSpec spec;
  spec.name = "fig05_tslice_sweep";
  spec.apps = workload::npb_apps();
  spec.classes = {workload::NpbClass::kB};
  spec.approaches = {cluster::Approach::kCR};
  spec.nodes = {2};
  spec.vcpus_per_vm = {16};  // motivation experiments use 16-VCPU VMs
  spec.slices = {30_ms, 24_ms, 18_ms, 12_ms, 6_ms,
                 1_ms,  600_us, 300_us, 150_us, 100_us};
  spec.seeds = {42};
  spec.warmup = scaled(1_s);
  spec.measure = scaled(8_s);

  const auto results = exp::run_sweep(
      spec, [](const exp::Trial& t) { return exp::run_type_a_trial(t); });
  const auto trials = exp::expand(spec);

  // Trial ids nest slices innermost per app, so each app's points are the
  // contiguous run of spec.slices.size() trials in declaration order, and
  // the first of them is the 30 ms baseline.
  const std::size_t per_app = spec.slices.size();
  for (std::size_t a = 0; a < spec.apps.size(); ++a) {
    std::vector<double> spins, execs;
    metrics::Table t("Fig. 5 (" + spec.apps[a] + ".B)",
                     {"time slice", "avg spin latency (ms)",
                      "normalized exec time"});
    const double baseline = results[a * per_app].metrics.at("superstep_s");
    bool complete = true;  // every cell has a normalized exec time
    for (std::size_t i = 0; i < per_app; ++i) {
      const exp::Trial& trial = trials[a * per_app + i];
      const auto& m = results[static_cast<std::size_t>(trial.id)].metrics;
      const double spin_ms = m.at("spin_s") * 1e3;
      const double exec_s = m.at("superstep_s");
      complete = complete && exec_s > 0 && baseline > 0;
      spins.push_back(spin_ms);
      execs.push_back(exec_s / baseline);
      t.add_row({metrics::fmt_ms(sim::to_millis(trial.slice)),
                 metrics::fmt(spin_ms, 2),
                 metrics::fmt_ratio(exec_s, baseline)});
    }
    t.print(std::cout);
    const std::string r =
        complete ? metrics::fmt(sim::pearson(spins, execs)) : "n/a";
    std::printf("  pearson(spin latency, exec time) = %s (paper: > 0.9)\n\n",
                r.c_str());
  }
  exp::emit_results_env(spec, results);
  return 0;
}
