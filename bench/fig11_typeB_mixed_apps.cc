// Figure 11 (+ Table I): evaluation type B — mixed parallel applications on
// virtual clusters synthesized from the LLNL Atlas trace.
//
// 32 nodes, 128 8-VCPU VMs: ten virtual clusters (256..16 VCPUs, Table I
// proportions) each running a random NPB class-B code, the remaining 30 VMs
// independent (lu/is).  Paper shape (VC1/sp example): ATC 0.25, DSS 0.45,
// CS 0.49, BS 0.90, CR 1.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "report_common.h"
#include "cluster/trace.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 11 — type B: trace-synthesized virtual clusters",
         "32 nodes, 128 VMs, ten VCs per Table I + independent VMs");

  metrics::Table t1("Table I: Atlas VC-size distribution (S=VCPUs, P=share)",
                    {"S", "P"});
  for (const auto& b : cluster::atlas_table1()) {
    t1.add_row({b.vcpus > 0 ? std::to_string(b.vcpus) : "others",
                metrics::fmt(b.percent, 1) + "%"});
  }
  t1.print(std::cout);

  // CR first: every other column is normalized to it.
  const std::vector<cluster::Approach> approaches = {
      cluster::Approach::kCR, cluster::Approach::kBS, cluster::Approach::kCS,
      cluster::Approach::kDSS, cluster::Approach::kATC};
  std::vector<exp::Cell> cells;
  for (cluster::Approach a : approaches) {
    exp::Cell c;
    c.builder.nodes(32).approach(a).seed(42);
    c.layout = [](cluster::Scenario& s) { cluster::build_type_b(s); };
    c.warmup = scaled(2_s);
    c.measure = scaled(5_s);
    cells.push_back(std::move(c));
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);

  // Every virtual cluster, then two independent VMs as the paper reports:
  // build_type_b creates its BSP apps in that order.
  const std::size_t rows = cluster::paper_vc_sizes_vms().size() + 2;
  metrics::Table t("Fig. 11: normalized exec time per virtual cluster vs CR",
                   {"cluster", "BS", "CS", "DSS", "ATC"});
  for (std::size_t k = 0; k < rows; ++k) {
    const auto& [key, cr] = results[0].supersteps[k];
    std::vector<std::string> row = {key};
    for (std::size_t i = 1; i < results.size(); ++i) {
      row.push_back(metrics::fmt_ratio(results[i].superstep(key), cr));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("expected shape per VC: ATC < DSS ~ CS < BS <= CR "
              "(paper VC1/sp: 0.25 / 0.45 / 0.49 / 0.90)\n");
  return 0;
}
