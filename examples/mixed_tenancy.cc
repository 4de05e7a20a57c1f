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
#include <vector>

#include "cluster/scenario.h"
#include "exp/cell.h"
#include "metrics/report.h"
#include "workload/npb_profiles.h"

using namespace atcsim;
using namespace sim::time_literals;

namespace {

exp::Cell cell(cluster::Approach a, sim::SimTime admin_slice) {
  exp::Cell c;
  c.builder.nodes(2).vms_per_node(4).approach(a).seed(11);
  c.layout = [admin_slice](cluster::Scenario& s) {
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
  };
  c.warmup = 2_s;
  c.measure = 4_s;
  return c;
}

double parallel_ms(const exp::CellResult& r) {
  return r.superstep("cluster") * 1e3;
}

}  // namespace

int main() {
  std::printf("mixed_tenancy: cg.B virtual cluster + web + sphinx3 + ping "
              "on 2 nodes\n\n");
  metrics::Table t("CR vs ATC(30ms) vs ATC(6ms admin slice)",
                   {"approach", "parallel superstep (ms)",
                    "web response (ms)", "sphinx3 rate", "ping RTT (ms)"});
  const std::vector<exp::CellResult> results = exp::run_cells(
      {cell(cluster::Approach::kCR, 0), cell(cluster::Approach::kATC, 0),
       cell(cluster::Approach::kATC, 6_ms)});
  const exp::CellResult& cr = results[0];
  const exp::CellResult& atc30 = results[1];
  auto add = [&](const char* name, const exp::CellResult& r) {
    t.add_row({name, metrics::fmt(parallel_ms(r), 1),
               metrics::fmt(r.latencies.at("web").mean_seconds() * 1e3, 2),
               metrics::fmt(r.rates.at("sphinx3")),
               metrics::fmt(r.latencies.at("ping").mean_seconds() * 1e3, 2)});
  };
  add("CR", cr);
  add("ATC(30ms)", atc30);
  add("ATC(6ms)", results[2]);
  t.print(std::cout);
  std::printf("takeaway: ATC accelerates the cluster %.1fx while sphinx3 "
              "keeps %.0f%% of its CR throughput under ATC(30ms)\n",
              parallel_ms(cr) / parallel_ms(atc30),
              100.0 * atc30.rates.at("sphinx3") / cr.rates.at("sphinx3"));
  return 0;
}
