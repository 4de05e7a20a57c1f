// Figure 5 (a-f): time-slice sweep for lu, is, sp, bt, mg, cg — average
// spinlock latency and normalized execution time at each slice, plus the
// Pearson correlation between the two series (paper: r > 0.9 everywhere).
//
// Setup per Sec. II-B: two nodes, four 16-VCPU VMs each (8:1 overcommit),
// four identical 2-VM virtual clusters; slices 30, 24, 18, 12, 6, 1, 0.6,
// 0.3, 0.15 and 0.1 ms set globally.
//
// Every (app, slice) cell is one exp::Cell; the cells run in parallel
// through exp::run_cells.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "report_common.h"
#include "simcore/stats.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 5 — spinlock latency & performance vs time slice",
         "2 nodes x 4x16-VCPU VMs (8:1), four identical virtual clusters");

  const std::vector<sim::SimTime> slices = {30_ms, 24_ms, 18_ms, 12_ms,
                                            6_ms,  1_ms,  600_us, 300_us,
                                            150_us, 100_us};
  // Slices innermost: each app's cells are a contiguous run in slice order,
  // and the first of them is its 30 ms baseline.
  const std::vector<std::string>& apps = workload::npb_apps();
  std::vector<exp::Cell> cells;
  for (const auto& app : apps) {
    for (sim::SimTime slice : slices) {
      exp::Cell c =
          exp::type_a(workload::npb_descriptor(app, workload::NpbClass::kB));
      // Motivation experiments use 16-VCPU VMs.
      c.builder.nodes(2).vcpus_per_vm(16).allow_wide_vms().seed(42);
      c.slice = slice;
      c.warmup = scaled(1_s);
      c.measure = scaled(8_s);
      cells.push_back(std::move(c));
    }
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);

  const std::size_t per_app = slices.size();
  for (std::size_t a = 0; a < apps.size(); ++a) {
    std::vector<double> spins, execs;
    metrics::Table t("Fig. 5 (" + apps[a] + ".B)",
                     {"time slice", "avg spin latency (ms)",
                      "normalized exec time"});
    const double baseline = results[a * per_app].mean_superstep(apps[a]);
    bool complete = true;  // every cell has a normalized exec time
    for (std::size_t i = 0; i < per_app; ++i) {
      const exp::CellResult& r = results[a * per_app + i];
      const double spin_ms = r.spin_s * 1e3;
      const double exec_s = r.mean_superstep(apps[a]);
      complete = complete && exec_s > 0 && baseline > 0;
      spins.push_back(spin_ms);
      execs.push_back(exec_s / baseline);
      t.add_row({metrics::fmt_ms(sim::to_millis(slices[i])),
                 metrics::fmt(spin_ms, 2),
                 metrics::fmt_ratio(exec_s, baseline)});
    }
    t.print(std::cout);
    const std::string r =
        complete ? metrics::fmt(sim::pearson(spins, execs)) : "n/a";
    std::printf("  pearson(spin latency, exec time) = %s (paper: > 0.9)\n\n",
                r.c_str());
  }
  return 0;
}
