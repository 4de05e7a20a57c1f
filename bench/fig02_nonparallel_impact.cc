// Figure 2: impact of Co-Scheduling (CS) on non-parallel applications.
//
// Two nodes, three 2-VM virtual clusters (NPB), and two non-parallel VMs
// hosting bonnie++, sphinx3, stream and ping.  Paper shape: under CS, ping
// RTT is ~1.75x CR, sphinx3 ~1.11x slower, stream slightly slower, bonnie++
// roughly unaffected.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

// Three 2-VM virtual clusters (lu, is, sp) and the non-parallel VMs.
void add_guests(cluster::Scenario& s) {
  for (int j = 0; j < 3; ++j) {
    auto vms = s.create_cluster_vms("vc" + std::to_string(j), {0, 1});
    const auto& apps = workload::npb_apps();
    s.add_bsp_app("vc" + std::to_string(j),
                  workload::npb_descriptor(apps[static_cast<std::size_t>(j)],
                                           workload::NpbClass::kB),
                  std::move(vms));
  }
  s.add_disk_vm(0, "bonnie");
  s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
  s.add_loop_vm(1, workload::cpu_descriptor("stream"), "stream");
  s.add_ping_pair(1, 0, "ping");
}

}  // namespace

int main() {
  banner("Figure 2 — CS impact on non-parallel applications",
         "2 nodes, 3 virtual clusters + bonnie++/sphinx3/stream/ping VMs");
  std::vector<exp::Cell> cells;
  for (cluster::Approach a : {cluster::Approach::kCR, cluster::Approach::kCS}) {
    exp::Cell c;
    // 3 cluster VMs + 2 app VMs per node.
    c.builder.nodes(2).vms_per_node(5).approach(a).seed(7);
    c.layout = add_guests;
    c.warmup = scaled(2_s);
    c.measure = scaled(6_s);
    cells.push_back(std::move(c));
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);
  const std::map<std::string, double>& cr = results[0].rates;
  const std::map<std::string, double>& cs = results[1].rates;
  const double cr_rtt = results[0].latencies.at("ping").mean_seconds();
  const double cs_rtt = results[1].latencies.at("ping").mean_seconds();
  metrics::Table t("Fig. 2: non-parallel metrics, CS normalized to CR",
                   {"application", "metric", "CR", "CS", "CS/CR"});
  t.add_row({"bonnie++", "throughput (MB/s)",
             metrics::fmt(cr.at("bonnie"), 1), metrics::fmt(cs.at("bonnie"), 1),
             metrics::fmt_ratio(cs.at("bonnie"), cr.at("bonnie"))});
  t.add_row({"sphinx3", "norm. exec time",
             metrics::fmt_ratio(cr.at("sphinx3"), cr.at("sphinx3")),
             metrics::fmt_ratio(cr.at("sphinx3"), cs.at("sphinx3")),
             metrics::fmt_ratio(cr.at("sphinx3"), cs.at("sphinx3"))});
  t.add_row({"stream", "bandwidth (MB/s)", metrics::fmt(cr.at("stream"), 0),
             metrics::fmt(cs.at("stream"), 0),
             metrics::fmt_ratio(cs.at("stream"), cr.at("stream"))});
  t.add_row({"ping", "RTT (ms)", metrics::fmt(cr_rtt * 1e3, 2),
             metrics::fmt(cs_rtt * 1e3, 2),
             metrics::fmt_ratio(cs_rtt, cr_rtt)});
  t.print(std::cout);
  std::printf("expected shape: ping RTT and sphinx3 exec time clearly worse "
              "under CS (paper: 1.75x / 1.11x); bonnie++ ~unchanged\n");
  return 0;
}
