// Example: scaling a virtual cluster — how the scheduling approach changes
// the parallel-execution picture as a cluster grows across nodes.
//
//   $ ./virtual_cluster_scaling [app]          (default: cg)
//   $ ./virtual_cluster_scaling [app] --large [nodes]   (default: 512)
//
// Runs evaluation type A (four identical virtual clusters of `app`, one VM
// per node each) at 2, 4 and 8 nodes under CR, CS, BS and ATC and prints
// per-approach superstep times and spin latencies.
//
// With --large the sweep is replaced by a single cluster-scale cell (512
// nodes unless overridden; the indexed run queues are what make this size
// tractable) under CR and ATC, reporting wall-clock simulation throughput
// alongside the model metrics.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "metrics/report.h"

using namespace atcsim;
using namespace sim::time_literals;

namespace {

struct Cell {
  double superstep_ms;
  double spin_ms;
};

Cell run(const std::string& app, cluster::Approach a, int nodes) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(nodes)
                .approach(a)
                .seed(2026)
                .build();
  cluster::Scenario& s = *sp;
  cluster::build_type_a(s, app, workload::NpbClass::kB);
  s.start();
  s.warmup_and_measure(2_s, 4_s);
  return Cell{s.mean_superstep_with_prefix(app) * 1e3,
              s.avg_parallel_spin_latency() * 1e3};
}

/// Cluster-scale macro cell: one approach at `nodes` nodes, short window.
void run_large(const std::string& app, int nodes) {
  metrics::Table t(app + ".B at " + std::to_string(nodes) +
                       " nodes (macro)",
                   {"approach", "mean superstep (ms)",
                    "avg spin latency (ms)", "sim events", "events/s wall"});
  for (cluster::Approach a :
       {cluster::Approach::kCR, cluster::Approach::kATC}) {
    auto sp = cluster::ScenarioBuilder{}
                  .nodes(nodes)
                  .approach(a)
                  .seed(2026)
                  .build();
    cluster::Scenario& s = *sp;
    cluster::build_type_a(s, app, workload::NpbClass::kB);
    s.start();
    const auto t0 = std::chrono::steady_clock::now();
    s.warmup_and_measure(500_ms, 1_s);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const auto events = s.simulation().events_executed();
    t.add_row({cluster::approach_name(a),
               metrics::fmt(s.mean_superstep_with_prefix(app) * 1e3, 1),
               metrics::fmt(s.avg_parallel_spin_latency() * 1e3, 2),
               std::to_string(events),
               metrics::fmt(static_cast<double>(events) / wall, 0)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app = argc > 1 ? argv[1] : "cg";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--large") {
      const int nodes = i + 1 < argc ? std::atoi(argv[i + 1]) : 512;
      std::printf("virtual_cluster_scaling: NPB %s.B cluster-scale macro, "
                  "4x8-VCPU VMs per 8-PCPU node\n\n",
                  app.c_str());
      run_large(app == "--large" ? "cg" : app, nodes > 0 ? nodes : 512);
      return 0;
    }
  }
  std::printf("virtual_cluster_scaling: NPB %s.B, four virtual clusters, "
              "4x8-VCPU VMs per 8-PCPU node\n\n", app.c_str());

  for (int nodes : {2, 4, 8}) {
    metrics::Table t(app + ".B on " + std::to_string(nodes) + " nodes",
                     {"approach", "mean superstep (ms)",
                      "avg spin latency (ms)", "normalized"});
    double cr = 0.0;
    for (cluster::Approach a :
         {cluster::Approach::kCR, cluster::Approach::kCS,
          cluster::Approach::kBS, cluster::Approach::kATC}) {
      const Cell c = run(app, a, nodes);
      if (a == cluster::Approach::kCR) cr = c.superstep_ms;
      t.add_row({cluster::approach_name(a), metrics::fmt(c.superstep_ms, 1),
                 metrics::fmt(c.spin_ms, 2),
                 metrics::fmt(c.superstep_ms / cr)});
    }
    t.print(std::cout);
  }
  return 0;
}
