// Figure 13: I/O and latency-sensitive applications in the mixed scenario —
// bonnie++ throughput, stream bandwidth, and web-server performance.
//
// Paper shape: bonnie++ ~unaffected under every approach; stream slightly
// worse under CS and ATC(6ms) (extra cache flushes); web-server performance
// collapses under CS (~0.35x CR) and *improves* under VS, DSS and ATC(6ms)
// (higher scheduling frequency -> shorter response time).
#include <cstdio>
#include <iostream>

#include "mixed_common.h"

using namespace atcsim;
using namespace atcsim::bench;

int main() {
  banner("Figure 13 — bonnie++/stream/web in the mixed scenario",
         "32 nodes, type-B virtual clusters + non-parallel independents");
  const std::map<std::string, MixedResult> results = run_mixed_all();
  const MixedResult& cr = results.at("CR");
  const auto& layout = cr.layout;

  const double cr_bonnie = mean_of(cr.rates, layout.disk_keys);
  const double cr_stream = mean_of(cr.rates, layout.stream_keys);
  const double cr_web = mean_of(cr.web_resp, layout.web_keys);

  metrics::Table t("Fig. 13: normalized performance vs CR "
                   "(>1 is better for throughput rows; web row = CR response "
                   "time / response time, >1 is faster)",
                   {"metric", "BS", "CS", "DSS", "VS", "ATC(30ms)",
                    "ATC(6ms)"});
  std::vector<std::string> bonnie_row = {"bonnie++ throughput"};
  std::vector<std::string> stream_row = {"stream bandwidth"};
  std::vector<std::string> web_row = {"web performance"};
  for (const char* label :
       {"BS", "CS", "DSS", "VS", "ATC(30ms)", "ATC(6ms)"}) {
    const MixedResult& r = results.at(label);
    bonnie_row.push_back(
        metrics::fmt_ratio(mean_of(r.rates, layout.disk_keys), cr_bonnie));
    stream_row.push_back(
        metrics::fmt_ratio(mean_of(r.rates, layout.stream_keys), cr_stream));
    web_row.push_back(
        metrics::fmt_ratio(cr_web, mean_of(r.web_resp, layout.web_keys)));
  }
  t.add_row(std::move(bonnie_row));
  t.add_row(std::move(stream_row));
  t.add_row(std::move(web_row));
  t.print(std::cout);

  metrics::Table rt("web-server mean response time (ms)", {"approach", "ms"});
  for (const MixedVariant& v : mixed_variants()) {
    rt.add_row({v.label,
                metrics::fmt(
                    mean_of(results.at(v.label).web_resp, layout.web_keys) *
                        1e3,
                    2)});
  }
  rt.print(std::cout);
  std::printf("expected shape: bonnie++ row ~1 everywhere; stream dips under "
              "CS/ATC(6ms); web under CS ~0.35, web under VS/DSS/ATC(6ms) "
              "> 1\n");
  return 0;
}
