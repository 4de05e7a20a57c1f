// Figure 1: scalability of Co-Scheduling (CS) vs Xen Credit (CR) for NPB lu
// on virtual clusters of 2..32 VMs (one VM per node, four identical
// clusters, 4x 8-VCPU VMs per 8-PCPU node).
//
// Paper shape: CS's normalized execution time *increases* with cluster size
// (0.30 at 2 VMs -> 0.44 at 32 VMs): gang dispatch fixes intra-VM stalls but
// VMs of one cluster on different nodes stay unaligned.
#include <cstdio>
#include <iostream>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 1 — CS vs CR scalability (lu)",
         "N nodes x 4 VMs x 8 VCPUs, four identical virtual clusters");
  const std::vector<int> node_counts = {2, 4, 8, 16, 32};
  // Cells 2n and 2n + 1: CR and CS on node_counts[n].
  std::vector<exp::Cell> cells;
  for (int nodes : node_counts) {
    for (cluster::Approach a : {cluster::Approach::kCR,
                                cluster::Approach::kCS}) {
      exp::Cell c =
          exp::type_a(workload::npb_descriptor("lu", workload::NpbClass::kB));
      c.builder.nodes(nodes).approach(a).seed(42);
      c.warmup = scaled(2_s);
      c.measure = scaled(6_s);
      cells.push_back(std::move(c));
    }
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);

  metrics::Table t("Fig. 1: normalized execution time of lu (vs CR)",
                   {"VMs per cluster", "CR", "CS"});
  for (std::size_t n = 0; n < node_counts.size(); ++n) {
    const double cr = results[2 * n].mean_superstep("lu.B");
    const double cs = results[2 * n + 1].mean_superstep("lu.B");
    t.add_row({std::to_string(node_counts[n]), metrics::fmt_ratio(cr, cr),
               metrics::fmt_ratio(cs, cr)});
  }
  t.print(std::cout);
  std::printf("expected shape: CS column increases with cluster size "
              "(paper: 0.30 -> 0.44)\n");
  return 0;
}
