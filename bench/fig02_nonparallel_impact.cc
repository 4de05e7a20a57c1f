// Figure 2: impact of Co-Scheduling (CS) on non-parallel applications.
//
// Two nodes, three 2-VM virtual clusters (NPB), and two non-parallel VMs
// hosting bonnie++, sphinx3, stream and ping.  Paper shape: under CS, ping
// RTT is ~1.75x CR, sphinx3 ~1.11x slower, stream slightly slower, bonnie++
// roughly unaffected.
#include <array>
#include <cstdio>
#include <iostream>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

struct FigResult {
  double bonnie_mbps = 0;
  double sphinx_rate = 0;
  double stream_mbps = 0;
  double ping_rtt_s = 0;
};

FigResult run(cluster::Approach a) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .vms_per_node(5)  // 3 cluster VMs + 2 app VMs per node
                .approach(a)
                .seed(7)
                .build();
  cluster::Scenario& s = *sp;
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
  s.start();
  s.warmup_and_measure(scaled(2_s), scaled(6_s));
  FigResult r;
  r.bonnie_mbps = s.metrics().rate("bonnie").per_second();
  r.sphinx_rate = s.metrics().rate("sphinx3").per_second();
  r.stream_mbps = s.metrics().rate("stream").per_second();
  r.ping_rtt_s = s.metrics().latency("ping").mean_seconds();
  return r;
}

}  // namespace

int main() {
  banner("Figure 2 — CS impact on non-parallel applications",
         "2 nodes, 3 virtual clusters + bonnie++/sphinx3/stream/ping VMs");
  const std::array<cluster::Approach, 2> approaches = {
      cluster::Approach::kCR, cluster::Approach::kCS};
  std::array<FigResult, 2> results;
  sim::parallel_for(approaches.size(), [&](std::size_t i) {
    results[i] = run(approaches[i]);
  });
  const FigResult& cr = results[0];
  const FigResult& cs = results[1];
  metrics::Table t("Fig. 2: non-parallel metrics, CS normalized to CR",
                   {"application", "metric", "CR", "CS", "CS/CR"});
  t.add_row({"bonnie++", "throughput (MB/s)", metrics::fmt(cr.bonnie_mbps, 1),
             metrics::fmt(cs.bonnie_mbps, 1),
             metrics::fmt_ratio(cs.bonnie_mbps, cr.bonnie_mbps)});
  t.add_row({"sphinx3", "norm. exec time",
             metrics::fmt_ratio(cr.sphinx_rate, cr.sphinx_rate),
             metrics::fmt_ratio(cr.sphinx_rate, cs.sphinx_rate),
             metrics::fmt_ratio(cr.sphinx_rate, cs.sphinx_rate)});
  t.add_row({"stream", "bandwidth (MB/s)", metrics::fmt(cr.stream_mbps, 0),
             metrics::fmt(cs.stream_mbps, 0),
             metrics::fmt_ratio(cs.stream_mbps, cr.stream_mbps)});
  t.add_row({"ping", "RTT (ms)", metrics::fmt(cr.ping_rtt_s * 1e3, 2),
             metrics::fmt(cs.ping_rtt_s * 1e3, 2),
             metrics::fmt_ratio(cs.ping_rtt_s, cr.ping_rtt_s)});
  t.print(std::cout);
  std::printf("expected shape: ping RTT and sphinx3 exec time clearly worse "
              "under CS (paper: 1.75x / 1.11x); bonnie++ ~unchanged\n");
  return 0;
}
