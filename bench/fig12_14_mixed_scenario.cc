// Figures 12, 13 and 14: the Sec. IV-C mixed experiment.  Type-B virtual
// clusters share 32 nodes with web, bonnie++, stream, SPEC-CPU and ping
// VMs.  Each of the seven approach variants is one exp::Cell, all of them
// run in parallel, and the three figures are read off the same seven runs.
//
// ATC appears twice: ATC(30ms) leaves non-parallel VMs at the VMM default;
// ATC(6ms) uses the Sec. III-C administrator interface to give them a 6 ms
// slice.
//
// Paper shapes:
//  * Fig. 12 (virtual clusters): ATC(30ms)/ATC(6ms) best; CS better than
//    DSS here (DSS is misled by latency-insensitive co-tenants that keep
//    long slices); DSS better than VS; BS ~ CR.
//  * Fig. 13 (I/O and latency-sensitive apps): bonnie++ ~unaffected under
//    every approach; stream slightly worse under CS and ATC(6ms) (extra
//    cache flushes); web-server performance collapses under CS (~0.35x CR)
//    and *improves* under VS, DSS and ATC(6ms) (higher scheduling
//    frequency -> shorter response time).
//  * Fig. 14 (SPEC CPU gcc, bzip2, sphinx3): CS and ATC(6ms) degrade
//    CPU-bound apps (VM preemption / extra context switches); BS, VS, DSS
//    and ATC(30ms) approximate CR.
#include <array>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "report_common.h"

using namespace atcsim;
using namespace atcsim::bench;

namespace {

struct Variant {
  const char* label;
  cluster::Approach approach;
  sim::SimTime admin_slice;  // >= 0: set on every non-parallel guest VM
};

// CR first: every figure normalizes the other six columns to it.
constexpr std::array<Variant, 7> kVariants = {{
    {"CR", cluster::Approach::kCR, -1},
    {"BS", cluster::Approach::kBS, -1},
    {"CS", cluster::Approach::kCS, -1},
    {"DSS", cluster::Approach::kDSS, -1},
    {"VS", cluster::Approach::kVS, -1},
    {"ATC(30ms)", cluster::Approach::kATC, -1},
    {"ATC(6ms)", cluster::Approach::kATC, 6 * sim::kMillisecond},
}};

using Results = std::vector<exp::CellResult>;

double value_of(double per_second) { return per_second; }
double value_of(const metrics::DurationRecorder& r) { return r.mean_seconds(); }

/// Mean over the keys starting with `prefix` of their values in `map` (a
/// rate per second, or a latency recorder's mean), skipping values that
/// are not positive; 0 when none is.
template <typename Map>
double mean_of(const std::vector<std::string>& keys, const Map& map,
               const std::string& prefix = "") {
  double sum = 0;
  int n = 0;
  for (const auto& key : keys) {
    if (key.rfind(prefix, 0) != 0) continue;
    const double v = value_of(map.at(key));
    if (v <= 0) continue;
    sum += v;
    ++n;
  }
  return n == 0 ? 0.0 : sum / n;
}

/// Header of a "normalized vs CR" table: `first`, then every non-CR label.
std::vector<std::string> vs_cr_header(const char* first) {
  std::vector<std::string> header = {first};
  for (std::size_t v = 1; v < kVariants.size(); ++v) {
    header.push_back(kVariants[v].label);
  }
  return header;
}

/// One row of a "normalized vs CR" table: ratio(variant) per non-CR column.
template <typename Ratio>
std::vector<std::string> vs_cr_row(const std::string& name,
                                   const Results& results, Ratio ratio) {
  std::vector<std::string> row = {name};
  for (std::size_t v = 1; v < kVariants.size(); ++v) {
    row.push_back(ratio(results[v]));
  }
  return row;
}

/// Per-variant milliseconds table.
template <typename Seconds>
void print_ms_table(const std::string& title, const Results& results,
                    Seconds seconds) {
  metrics::Table t(title, {"approach", "ms"});
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    t.add_row(
        {kVariants[v].label, metrics::fmt(seconds(results[v]) * 1e3, 2)});
  }
  t.print(std::cout);
}

void print_fig12(const cluster::MixedLayout& l, const Results& results) {
  banner("Figure 12 — parallel performance in the mixed scenario",
         "32 nodes, type-B virtual clusters + web/bonnie/SPEC/stream/ping "
         "independents");
  metrics::Table t("Fig. 12: normalized exec time of the virtual clusters "
                   "vs CR",
                   vs_cr_header("cluster"));
  for (const auto& key : l.vc_keys) {
    const double base = results[0].superstep(key);
    t.add_row(vs_cr_row(key, results, [&](const exp::CellResult& r) {
      return metrics::fmt_ratio(r.superstep(key), base);
    }));
  }
  t.print(std::cout);
  std::printf("expected shape: ATC variants lowest; CS < DSS is possible "
              "here (paper: DSS inferior to CS in the mixed scenario); "
              "DSS < VS; BS ~ 1\n");
}

void print_fig13(const cluster::MixedLayout& l, const Results& results) {
  banner("Figure 13 — bonnie++/stream/web in the mixed scenario",
         "32 nodes, type-B virtual clusters + non-parallel independents");
  const exp::CellResult& cr = results[0];
  metrics::Table t("Fig. 13: normalized performance vs CR "
                   "(>1 is better for throughput rows; web row = CR response "
                   "time / response time, >1 is faster)",
                   vs_cr_header("metric"));
  t.add_row(vs_cr_row("bonnie++ throughput", results, [&](const auto& r) {
    return metrics::fmt_ratio(mean_of(l.disk_keys, r.rates),
                              mean_of(l.disk_keys, cr.rates));
  }));
  t.add_row(vs_cr_row("stream bandwidth", results, [&](const auto& r) {
    return metrics::fmt_ratio(mean_of(l.stream_keys, r.rates),
                              mean_of(l.stream_keys, cr.rates));
  }));
  t.add_row(vs_cr_row("web performance", results, [&](const auto& r) {
    return metrics::fmt_ratio(mean_of(l.web_keys, cr.latencies),
                              mean_of(l.web_keys, r.latencies));
  }));
  t.print(std::cout);
  print_ms_table("web-server mean response time (ms)", results,
                 [&](const auto& r) {
                   return mean_of(l.web_keys, r.latencies);
                 });
  std::printf("expected shape: bonnie++ row ~1 everywhere; stream dips under "
              "CS/ATC(6ms); web under CS ~0.35, web under VS/DSS/ATC(6ms) "
              "> 1\n");
}

void print_fig14(const cluster::MixedLayout& l, const Results& results) {
  banner("Figure 14 — SPEC CPU applications in the mixed scenario",
         "32 nodes, type-B virtual clusters + non-parallel independents");
  const exp::CellResult& cr = results[0];
  metrics::Table t("Fig. 14: normalized execution time vs CR (1 = CR, "
                   "higher is worse)",
                   vs_cr_header("application"));
  for (const char* app : {"gcc", "bzip2", "sphinx3"}) {
    t.add_row(vs_cr_row(app, results, [&](const auto& r) {
      return metrics::fmt_ratio(mean_of(l.cpu_keys, cr.rates, app),
                                mean_of(l.cpu_keys, r.rates, app));
    }));
  }
  t.print(std::cout);
  print_ms_table("ping RTT (ms) across approaches", results,
                 [&](const auto& r) {
                   return mean_of(l.ping_keys, r.latencies);
                 });
  std::printf("expected shape: CS and ATC(6ms) columns > 1; BS/VS/DSS/"
              "ATC(30ms) ~ 1\n");
}

}  // namespace

int main() {
  // Every variant shares the seed and shape build_mixed draws on, so the CR
  // cell's keys name every variant's guests; only that cell writes them.
  cluster::MixedLayout layout;
  std::vector<exp::Cell> cells;
  for (std::size_t v = 0; v < kVariants.size(); ++v) {
    exp::Cell c;
    c.builder.nodes(32).approach(kVariants[v].approach).seed(42);
    c.layout = [&layout, v](cluster::Scenario& s) {
      cluster::MixedLayout keys = cluster::build_mixed(s);
      if (v == 0) layout = std::move(keys);
      const sim::SimTime admin_slice = kVariants[v].admin_slice;
      if (admin_slice < 0) return;
      for (virt::Vm* vm : s.guest_vms()) {
        if (!vm->is_parallel()) vm->set_admin_slice(admin_slice);
      }
    };
    c.warmup = scaled(2_s);
    c.measure = scaled(5_s);
    cells.push_back(std::move(c));
  }
  const Results results = exp::run_cells(cells);
  print_fig12(layout, results);
  print_fig13(layout, results);
  print_fig14(layout, results);
  return 0;
}
