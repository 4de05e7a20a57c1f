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

struct FigResult {
  double sphinx_rate;
  double ping_rtt_ms;
  double stream_mbps;
};

FigResult run(sim::SimTime slice) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .vms_per_node(5)
                .approach(cluster::Approach::kCR)
                .seed(7)
                .build();
  cluster::Scenario& s = *sp;
  for (int j = 0; j < 3; ++j) {
    auto vms = s.create_cluster_vms("vc" + std::to_string(j), {0, 1});
    s.add_bsp_app("vc" + std::to_string(j),
                  workload::npb_descriptor("lu", workload::NpbClass::kB),
                  std::move(vms));
  }
  s.add_loop_vm(0, workload::cpu_descriptor("sphinx3"), "sphinx3");
  s.add_loop_vm(1, workload::cpu_descriptor("stream"), "stream");
  s.add_ping_pair(1, 0, "ping");
  s.start();
  set_global_guest_slice(s, slice);
  s.warmup_and_measure(scaled(2_s), scaled(6_s));
  return FigResult{s.metrics().rate("sphinx3").per_second(),
                s.metrics().latency("ping").mean_seconds() * 1e3,
                s.metrics().rate("stream").per_second()};
}

}  // namespace

int main() {
  banner("Figure 9 — non-parallel applications vs time slice",
         "2 nodes, 3 virtual clusters + sphinx3/stream/ping VMs, global "
         "slice sweep");
  const std::vector<sim::SimTime> slices = {30_ms, 12_ms, 6_ms,
                                            3_ms,  1_ms,  300_us};
  std::vector<FigResult> results(slices.size());
  sim::parallel_for(slices.size(), [&](std::size_t i) {
    results[i] = run(slices[i]);
  });
  metrics::Table t("Fig. 9: non-parallel metrics vs time slice",
                   {"time slice", "sphinx3 norm. exec time",
                    "ping RTT (ms)", "stream bandwidth (MB/s)"});
  const double sphinx_base = results[0].sphinx_rate;  // the 30 ms cell
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const FigResult& r = results[i];
    t.add_row({metrics::fmt_ms(sim::to_millis(slices[i])),
               metrics::fmt_ratio(sphinx_base, r.sphinx_rate),
               metrics::fmt(r.ping_rtt_ms, 2),
               metrics::fmt(r.stream_mbps, 0)});
  }
  t.print(std::cout);
  std::printf("expected shape: sphinx3 exec time rises as the slice shrinks; "
              "ping RTT falls; stream dips slightly\n");
  return 0;
}
