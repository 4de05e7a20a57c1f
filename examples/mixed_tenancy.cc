// Example: multi-tenant coexistence — a parallel virtual cluster sharing
// nodes with a web server, a CPU-bound job and a ping probe, under ATC.
//
//   $ ./mixed_tenancy
//
// Demonstrates the Sec. III-C administrator interface: non-parallel VMs
// keep the VMM default slice under ATC(30ms), or get an explicit 6 ms slice
// under ATC(6ms).  Shows the paper's headline trade-off: the parallel app
// accelerates by several x while non-parallel tenants stay (almost)
// unaffected — unless the admin opts them into shorter slices.
#include <cstdio>
#include <iostream>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "metrics/report.h"

using namespace atcsim;
using namespace sim::time_literals;

namespace {

struct Row {
  double parallel_ms;
  double web_ms;
  double sphinx_rate;
  double ping_ms;
};

Row run(cluster::Approach a, sim::SimTime admin_slice) {
  auto sp = cluster::ScenarioBuilder{}
                .nodes(2)
                .vms_per_node(4)
                .approach(a)
                .seed(11)
                .build();
  cluster::Scenario& s = *sp;
  // One 2-VM virtual cluster (cg.B) spanning the nodes...
  auto vms = s.create_cluster_vms("cluster", {0, 1});
  s.add_bsp_app("cluster",
                workload::npb_descriptor("cg", workload::NpbClass::kB),
                std::move(vms));
  // ...plus non-parallel tenants.
  virt::Vm& web = s.add_web_vm(0, 60.0, "web");
  virt::Vm& cpu =
      s.add_loop_vm(1, workload::cpu_descriptor("sphinx3"), "sphinx3");
  s.add_ping_pair(0, 1, "ping");
  if (admin_slice > 0) {
    web.set_admin_slice(admin_slice);
    cpu.set_admin_slice(admin_slice);
  }
  s.start();
  s.warmup_and_measure(2_s, 4_s);
  return Row{s.mean_superstep("cluster") * 1e3,
             s.metrics().latency("web").mean_seconds() * 1e3,
             s.metrics().rate("sphinx3").per_second(),
             s.metrics().latency("ping").mean_seconds() * 1e3};
}

}  // namespace

int main() {
  std::printf("mixed_tenancy: cg.B virtual cluster + web + sphinx3 + ping "
              "on 2 nodes\n\n");
  metrics::Table t("CR vs ATC(30ms) vs ATC(6ms admin slice)",
                   {"approach", "parallel superstep (ms)",
                    "web response (ms)", "sphinx3 rate", "ping RTT (ms)"});
  const Row cr = run(cluster::Approach::kCR, 0);
  const Row atc30 = run(cluster::Approach::kATC, 0);
  const Row atc6 = run(cluster::Approach::kATC, 6_ms);
  auto add = [&](const char* name, const Row& r) {
    t.add_row({name, metrics::fmt(r.parallel_ms, 1), metrics::fmt(r.web_ms, 2),
               metrics::fmt(r.sphinx_rate), metrics::fmt(r.ping_ms, 2)});
  };
  add("CR", cr);
  add("ATC(30ms)", atc30);
  add("ATC(6ms)", atc6);
  t.print(std::cout);
  std::printf("takeaway: ATC accelerates the cluster %.1fx while sphinx3 "
              "keeps %.0f%% of its CR throughput under ATC(30ms)\n",
              cr.parallel_ms / atc30.parallel_ms,
              100.0 * atc30.sphinx_rate / cr.sphinx_rate);
  return 0;
}
