// Figure 8 (a-f) + the Sec. III-B threshold table.
//
// NPB class C on four 2-VM virtual clusters (two nodes, 16-VCPU VMs),
// shortening the global time slice down to 0.03 ms while sampling LLC
// misses (Xenoprof substitute).  Paper shape: execution time keeps falling
// with the slice until a per-application inflection point around 0.2-0.3 ms,
// below which context-switch/cache-refill overhead dominates; the Euclidean
// metric over {0.5, 0.4, 0.3, 0.2, 0.1, 0.03} ms picks 0.3 ms as the uniform
// minimum time-slice threshold (paper distances: 0.034, 0.020, 0.018, 0.049,
// 0.039, 0.069).
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "atc/threshold.h"
#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 8 — performance inflection of short slices (NPB class C) "
         "+ Sec. III-B Euclidean threshold",
         "2 nodes x 4x16-VCPU VMs, four identical virtual clusters");
  const std::vector<sim::SimTime> slices = {30_ms,  6_ms,   1_ms,  500_us,
                                            400_us, 300_us, 200_us, 100_us,
                                            30_us};
  // Normalized exec time per app per candidate slice (the Sec. III-B grid).
  const std::vector<sim::SimTime> candidates = {500_us, 400_us, 300_us,
                                                200_us, 100_us, 30_us};
  // Slices innermost: app a's cells start at a * slices.size(), with its
  // 30 ms baseline first.
  const std::vector<std::string>& apps = workload::npb_apps();
  std::vector<exp::Cell> cells;
  for (const auto& app : apps) {
    for (sim::SimTime slice : slices) {
      exp::Cell c =
          exp::type_a(workload::npb_descriptor(app, workload::NpbClass::kC));
      c.builder.nodes(2).vcpus_per_vm(16).allow_wide_vms().seed(42);
      c.slice = slice;
      c.warmup = scaled(1_s);
      c.measure = scaled(8_s);
      cells.push_back(std::move(c));
    }
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);

  std::vector<std::vector<double>> grid(candidates.size());
  bool complete = true;  // every grid cell has a normalized exec time
  for (std::size_t a = 0; a < apps.size(); ++a) {
    metrics::Table t("Fig. 8 (" + apps[a] + ".C)",
                     {"time slice", "normalized exec time",
                      "avg spin latency (ms)", "LLC misses/s"});
    const double baseline =
        results[a * slices.size()].mean_superstep(apps[a]);
    std::map<sim::SimTime, double> norm;
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const exp::CellResult& r = results[a * slices.size() + i];
      const double exec_s = r.mean_superstep(apps[a]);
      if (exec_s > 0 && baseline > 0) norm[slices[i]] = exec_s / baseline;
      t.add_row({metrics::fmt_ms(sim::to_millis(slices[i])),
                 metrics::fmt_ratio(exec_s, baseline),
                 metrics::fmt(r.spin_s * 1e3, 2),
                 metrics::fmt(r.llc_miss_per_s / 1e6, 1) + "M"});
    }
    t.print(std::cout);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      complete = complete && norm.contains(candidates[c]);
      grid[c].push_back(norm[candidates[c]]);
    }
  }

  const atc::ThresholdResult result =
      atc::optimize_threshold(candidates, grid);
  metrics::Table t("Sec. III-B: Euclidean metric D(O,P) per candidate slice",
                   {"time slice", "D(O,P)"});
  for (const auto& c : result.candidates) {
    t.add_row({metrics::fmt_ms(sim::to_millis(c.slice)),
               complete ? metrics::fmt(c.distance) : "n/a"});
  }
  t.print(std::cout);
  const std::string best =
      complete ? metrics::fmt_ms(sim::to_millis(result.best_slice)) : "n/a";
  std::printf("selected minimum time-slice threshold: %s (paper: 0.3ms, "
              "D=0.018)\n",
              best.c_str());
  return 0;
}
