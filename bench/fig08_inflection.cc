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
#include <vector>

#include "atc/threshold.h"
#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

struct Point {
  double exec_s;
  double spin_ms;
  double miss_rate;  // LLC misses per second
};

Point run(const std::string& app, sim::SimTime slice) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .vms_per_node(4)
                .vcpus_per_vm(16)
                .approach(cluster::Approach::kCR)
                .seed(42)
                .allow_wide_vms()
                .build();
  cluster::Scenario& s = *sp;
  cluster::build_type_a(s, app, workload::NpbClass::kC);
  s.start();
  set_global_guest_slice(s, slice);
  s.warmup_and_measure(scaled(1_s), scaled(8_s));
  return Point{s.mean_superstep_with_prefix(app),
               s.avg_parallel_spin_latency() * 1e3, s.llc_miss_rate()};
}

}  // namespace

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
  std::vector<std::vector<double>> grid(candidates.size());
  bool complete = true;  // every grid cell has a normalized exec time

  for (const auto& app : workload::npb_apps()) {
    metrics::Table t("Fig. 8 (" + app + ".C)",
                     {"time slice", "normalized exec time",
                      "avg spin latency (ms)", "LLC misses/s"});
    double baseline = 0.0;  // the 30 ms cell
    std::map<sim::SimTime, double> norm;
    for (sim::SimTime slice : slices) {
      const Point p = run(app, slice);
      if (slice == slices.front()) baseline = p.exec_s;
      if (p.exec_s > 0 && baseline > 0) norm[slice] = p.exec_s / baseline;
      t.add_row({metrics::fmt_ms(sim::to_millis(slice)),
                 metrics::fmt_ratio(p.exec_s, baseline),
                 metrics::fmt(p.spin_ms, 2),
                 metrics::fmt(p.miss_rate / 1e6, 1) + "M"});
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
