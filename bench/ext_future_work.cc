// Extensions bench: the paper's Sec. VI future-work items, implemented and
// measured against the published design.
//
//  1. Non-intrusive monitoring (auto_classify): ATC driven purely by
//     VMM-visible spin behaviour, with every guest VM's declared type
//     ignored — compared to admin-declared ATC.
//  2. Flexible non-parallel slices (adaptive_nonparallel): web-like VMs are
//     detected by wake-up rate and given a shorter slice automatically
//     (instead of the static admin interface), CPU VMs keep the default.
#include <array>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

// Two 4-VM clusters + web + sphinx3 + two single-VM parallel apps.
void add_guests(cluster::Scenario& s) {
  for (int j = 0; j < 2; ++j) {
    auto vms = s.create_cluster_vms({0, 1, 2, 3});
    s.add_bsp_app("vc" + std::to_string(j),
                  workload::npb_descriptor(j == 0 ? "lu" : "cg",
                                           workload::NpbClass::kB),
                  std::move(vms));
  }
  s.add_web_vm(0, 80.0, "web");
  s.add_loop_vm(1, workload::cpu_descriptor("sphinx3"), "sphinx3");
  auto ivm0 = s.create_cluster_vms({2});
  s.add_bsp_app("ivm0", workload::npb_descriptor("lu", workload::NpbClass::kB),
                std::move(ivm0));
  auto ivm1 = s.create_cluster_vms({3});
  s.add_bsp_app("ivm1", workload::npb_descriptor("is", workload::NpbClass::kB),
                std::move(ivm1));
}

}  // namespace

int main() {
  banner("Extensions — Sec. VI future work, measured",
         "4 nodes: 2 virtual clusters + web + sphinx3 + independent VMs");

  atc::AtcConfig declared;  // the published design (admin declares types)
  atc::AtcConfig classified;
  classified.auto_classify = true;
  atc::AtcConfig adaptive;
  adaptive.auto_classify = true;
  adaptive.adaptive_nonparallel = true;

  struct Variant {
    const char* name;
    cluster::Approach approach;
    atc::AtcConfig atc_cfg;
  };
  const std::array<Variant, 4> variants = {{
      {"CR", cluster::Approach::kCR, declared},
      {"ATC (declared types)", cluster::Approach::kATC, declared},
      {"ATC + auto-classify", cluster::Approach::kATC, classified},
      {"ATC + auto-classify + adaptive non-parallel", cluster::Approach::kATC,
       adaptive},
  }};
  std::vector<exp::Cell> cells;
  for (const Variant& v : variants) {
    exp::Cell c;
    c.builder.nodes(4).approach(v.approach).seed(21).atc(v.atc_cfg);
    c.layout = add_guests;
    c.warmup = scaled(3_s);
    c.measure = scaled(5_s);
    cells.push_back(std::move(c));
  }
  const std::vector<exp::CellResult> results = exp::run_cells(cells);

  metrics::Table t("future-work extensions vs published ATC",
                   {"variant", "parallel superstep (ms)", "web mean (ms)",
                    "web p95 (ms)", "sphinx3 rate"});
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const exp::CellResult& r = results[i];
    const metrics::DurationRecorder& web = r.latencies.at("web");
    t.add_row({variants[i].name,
               metrics::fmt((r.superstep("vc0") + r.superstep("vc1")) / 2 * 1e3,
                            1),
               metrics::fmt(web.mean_seconds() * 1e3, 2),
               metrics::fmt(web.p95_seconds() * 1e3, 2),
               metrics::fmt(r.rates.at("sphinx3"))});
  }
  t.print(std::cout);
  std::printf("expected: auto-classify matches declared ATC (no admin input "
              "needed); adaptive non-parallel trims web latency further "
              "while sphinx3 stays at its CR rate\n");
  return 0;
}
