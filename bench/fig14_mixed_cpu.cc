// Figure 14: CPU-intensive SPEC applications (gcc, bzip2, sphinx3) in the
// mixed scenario.
//
// Paper shape: CS and ATC(6ms) degrade CPU-bound apps (VM preemption /
// extra context switches); BS, VS, DSS and ATC(30ms) approximate CR.
#include <cstdio>
#include <iostream>

#include "mixed_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 14 — SPEC CPU applications in the mixed scenario",
         "32 nodes, type-B virtual clusters + non-parallel independents");
  const std::map<std::string, MixedResult> results = run_mixed_all();
  const MixedResult& cr = results.at("CR");
  const auto& layout = cr.layout;

  metrics::Table t("Fig. 14: normalized execution time vs CR (1 = CR, "
                   "higher is worse)",
                   {"application", "BS", "CS", "DSS", "VS", "ATC(30ms)",
                    "ATC(6ms)"});
  for (const char* app : {"gcc", "bzip2", "sphinx3"}) {
    const double base = mean_of(cr.rates, layout.cpu_keys, app);
    std::vector<std::string> row = {app};
    for (const char* label :
         {"BS", "CS", "DSS", "VS", "ATC(30ms)", "ATC(6ms)"}) {
      const double rate =
          mean_of(results.at(label).rates, layout.cpu_keys, app);
      row.push_back(metrics::fmt_ratio(base, rate));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  metrics::Table pt("ping RTT (ms) across approaches", {"approach", "ms"});
  for (const MixedVariant& v : mixed_variants()) {
    pt.add_row({v.label,
                metrics::fmt(mean_of(results.at(v.label).ping_rtt,
                                     layout.ping_keys) *
                                 1e3,
                             2)});
  }
  pt.print(std::cout);
  std::printf("expected shape: CS and ATC(6ms) columns > 1; BS/VS/DSS/"
              "ATC(30ms) ~ 1\n");
  return 0;
}
