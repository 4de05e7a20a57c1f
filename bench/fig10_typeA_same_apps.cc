// Figure 10: evaluation type A — the same parallel application on four
// identical virtual clusters, scaling from 2 to 32 physical nodes, under
// BS, CS, DSS and ATC (normalized to CR).
//
// Paper shape: ATC best and flat across scales (e.g. lu 0.15 at 8 nodes);
// CS between BS and ATC and degrading with scale; BS only marginally better
// than CR; DSS between CS and ATC.
//
// Every (app, approach, nodes) cell — CR baselines included — is one
// exp::Cell; the cells run in parallel through exp::run_cells.
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 10 — type A: same app on four virtual clusters, 2-32 nodes",
         "N nodes x 4x8-VCPU VMs (4:1), normalized execution time vs CR");
  const std::vector<std::string>& apps = workload::npb_apps();
  // CR first: every other column is normalized to it.
  const std::vector<cluster::Approach> approaches = {
      cluster::Approach::kCR, cluster::Approach::kBS, cluster::Approach::kCS,
      cluster::Approach::kDSS, cluster::Approach::kATC};
  const std::vector<int> node_counts = {2, 4, 8, 16, 32};

  // Nodes innermost, then approach, then app: the order exec() reads.
  std::vector<exp::Cell> cells;
  for (const auto& app : apps) {
    for (cluster::Approach approach : approaches) {
      for (int nodes : node_counts) {
        exp::Cell c =
            exp::type_a(workload::npb_descriptor(app, workload::NpbClass::kB));
        c.builder.nodes(nodes).vcpus_per_vm(8).approach(approach).seed(42);
        c.warmup = scaled(2_s);
        c.measure = scaled(5_s);
        cells.push_back(std::move(c));
      }
    }
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);
  auto exec = [&](std::size_t a, std::size_t p, std::size_t n) {
    return results[(a * approaches.size() + p) * node_counts.size() + n]
        .mean_superstep(apps[a]);
  };

  for (std::size_t a = 0; a < apps.size(); ++a) {
    metrics::Table t("Fig. 10 (" + apps[a] + ".B): normalized exec time vs CR",
                     {"nodes", "BS", "CS", "DSS", "ATC"});
    for (std::size_t n = 0; n < node_counts.size(); ++n) {
      const double cr = exec(a, 0, n);
      std::vector<std::string> row = {std::to_string(node_counts[n])};
      for (std::size_t p = 1; p < approaches.size(); ++p) {
        row.push_back(metrics::fmt_ratio(exec(a, p, n), cr));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  std::printf("expected shape: ATC lowest and ~flat; CS rises with scale; "
              "BS close to 1 (paper example, lu @ 8 nodes: BS 0.85, CS 0.38, "
              "ATC 0.15)\n");
  return 0;
}
