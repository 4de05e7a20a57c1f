// Figure 9: how the time slice affects non-parallel applications.
//
// Same mixed layout as Fig. 2; the global guest slice is swept downward.
// Paper shape: sphinx3 (CPU-bound) degrades as the slice shrinks (context
// switches), ping RTT *improves* (the peer gets scheduled sooner), stream
// suffers slightly (cache flushes).
#include <cstdio>
#include <iostream>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

// Three 2-VM lu virtual clusters and the non-parallel VMs.
void add_guests(cluster::Scenario& s) {
  for (int j = 0; j < 3; ++j) {
    auto vms = s.create_cluster_vms({0, 1});
    s.add_bsp_app("vc" + std::to_string(j),
                  workload::npb_descriptor("lu", workload::NpbClass::kB),
                  std::move(vms));
  }
  s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
  s.add_loop_vm(1, workload::cpu_descriptor("stream"), "stream");
  s.add_ping_pair(1, 0, "ping");
}

}  // namespace

int main() {
  banner("Figure 9 — non-parallel applications vs time slice",
         "2 nodes, 3 virtual clusters + sphinx3/stream/ping VMs, global "
         "slice sweep");
  const std::vector<sim::SimTime> slices = {30_ms, 12_ms, 6_ms,
                                            3_ms,  1_ms,  300_us};
  std::vector<exp::Cell> cells;
  for (sim::SimTime slice : slices) {
    exp::Cell c;
    c.builder.nodes(2).vms_per_node(5).seed(7);  // CR, the default approach
    c.layout = add_guests;
    c.slice = slice;
    c.warmup = scaled(2_s);
    c.measure = scaled(6_s);
    cells.push_back(std::move(c));
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);
  metrics::Table t("Fig. 9: non-parallel metrics vs time slice",
                   {"time slice", "sphinx3 norm. exec time",
                    "ping RTT (ms)", "stream bandwidth (MB/s)"});
  const double sphinx_base = results[0].rates.at("sphinx3");  // 30 ms cell
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const exp::CellResult& r = results[i];
    t.add_row({metrics::fmt_ms(sim::to_millis(slices[i])),
               metrics::fmt_ratio(sphinx_base, r.rates.at("sphinx3")),
               metrics::fmt(r.latencies.at("ping").mean_seconds() * 1e3, 2),
               metrics::fmt(r.rates.at("stream"), 0)});
  }
  t.print(std::cout);
  std::printf("expected shape: sphinx3 exec time rises as the slice shrinks; "
              "ping RTT falls; stream dips slightly\n");
  return 0;
}
