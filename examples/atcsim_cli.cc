// atcsim_cli — run a single scenario (or a small repetition sweep) from the
// command line.
//
//   $ ./atcsim_cli --app lu --class B --nodes 8 --approach ATC
//                  --warmup-s 2 --measure-s 6 [--reps 3]
//                  [--threads N] [--csv] [--jsonl out.jsonl]
//
// Builds evaluation type A (four identical virtual clusters of the chosen
// app) as one exp::Cell per repetition; the repetitions run in parallel
// across host threads through exp::run_cells.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/scenario.h"
#include "exp/cell.h"
#include "metrics/report.h"
#include "workload/npb_profiles.h"

using namespace atcsim;
using namespace sim::time_literals;

namespace {

struct Args {
  std::string app = "lu";
  std::string workload;  // descriptor file path or inline text
  workload::NpbClass cls = workload::NpbClass::kB;
  int nodes = 4;
  int vcpus = 8;
  std::string approach = "ATC";
  double warmup_s = 2.0;
  double measure_s = 5.0;
  std::optional<double> slice_ms;  // fixed guest slice; CR, CS, BS, PM only
  std::uint64_t seed = 42;
  int shards = 1;
  int reps = 1;
  long long threads = 0;
  bool csv = false;
  std::string jsonl_path;
  bool auto_classify = false;
  bool trace = false;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: atcsim_cli [--app lu|is|sp|bt|mg|cg] [--class A|B|C]\n"
      "                  [--workload FILE|TEXT]\n"
      "                  [--nodes N] [--vcpus N]\n"
      "                  [--approach CR|CS|BS|DSS|VS|ATC|PM|ATC+PM]\n"
      "                  [--slice-ms X] [--warmup-s X] [--measure-s X]\n"
      "                  [--seed N] [--shards K] [--reps N] [--threads N]\n"
      "                  [--auto-classify] [--csv]\n"
      "                  [--jsonl PATH] [--trace]\n"
      "  --workload: run a workload descriptor instead of an NPB profile\n"
      "              (replaces --app/--class).  The argument is a descriptor\n"
      "              file, or inline text with ';' separating statements:\n"
      "              --workload 'workload svc; phase compute 1ms; "
      "phase think 2ms'\n"
      "              See examples/workloads/ and DESIGN.md section 11.\n"
      "  --slice-ms: fixed time slice of every guest; refused under ATC, DSS,\n"
      "              VS and ATC+PM, which set guest slices themselves\n"
      "  --shards: partition the hosts across K event-queue shards and run\n"
      "            them as a conservative parallel simulation (default 1,\n"
      "            the serial engine)\n"
      "  --trace: record a structured trace + run the invariant checker per\n"
      "           repetition; writes <label>.trace (compact) and <label>.json\n"
      "           (chrome://tracing) under $ATCSIM_TRACE_DIR or ./traces/\n");
}

// Whole-argument numeric parse: "1x", "abc", "1.9" for an integer flag,
// "" and out-of-range values fail instead of reading as a prefix or as 0.
template <typename T>
bool parse_number(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end;
}

// 2^63 ns, one past the largest SimTime.
constexpr double kSimTimeLimitNs = 0x1p63;

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    // Reads the flag's value into `out`; false when it is missing or is not
    // wholly a number of out's type.
    auto number = [&](auto& out) {
      const char* v = value();
      return v != nullptr && parse_number(v, out);
    };
    if (flag == "--app") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      a.app = v;
    } else if (flag == "--workload") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      a.workload = v;
    } else if (flag == "--class") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      const std::string cls = v;
      if (cls == "A") {
        a.cls = workload::NpbClass::kA;
      } else if (cls == "B") {
        a.cls = workload::NpbClass::kB;
      } else if (cls == "C") {
        a.cls = workload::NpbClass::kC;
      } else {
        return std::nullopt;
      }
    } else if (flag == "--nodes") {
      if (!number(a.nodes)) return std::nullopt;
    } else if (flag == "--vcpus") {
      if (!number(a.vcpus)) return std::nullopt;
    } else if (flag == "--approach") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      a.approach = v;
    } else if (flag == "--slice-ms") {
      if (!number(a.slice_ms.emplace())) return std::nullopt;
    } else if (flag == "--warmup-s") {
      if (!number(a.warmup_s)) return std::nullopt;
    } else if (flag == "--measure-s") {
      if (!number(a.measure_s)) return std::nullopt;
    } else if (flag == "--seed") {
      if (!number(a.seed)) return std::nullopt;
    } else if (flag == "--shards") {
      if (!number(a.shards)) return std::nullopt;
    } else if (flag == "--reps") {
      if (!number(a.reps)) return std::nullopt;
    } else if (flag == "--threads") {
      if (!number(a.threads)) return std::nullopt;
    } else if (flag == "--csv") {
      a.csv = true;
    } else if (flag == "--jsonl") {
      const char* v = value();
      if (v == nullptr) return std::nullopt;
      a.jsonl_path = v;
    } else if (flag == "--auto-classify") {
      a.auto_classify = true;
    } else if (flag == "--trace") {
      a.trace = true;
    } else {
      return std::nullopt;
    }
  }
  // Negated comparisons so NaN values are rejected too.  Durations must fit
  // SimTime's nanoseconds (infinities do not), the run ends at warmup +
  // measure, and the measured window must keep at least 1 ns.
  const double warmup_ns = a.warmup_s * 1e9;
  const double measure_ns = a.measure_s * 1e9;
  const bool bad_window = !(warmup_ns >= 0 && measure_ns >= 1 &&
                            warmup_ns + measure_ns < kSimTimeLimitNs);
  const bool bad_slice = a.slice_ms && !(*a.slice_ms > 0 &&
                                         *a.slice_ms * 1e6 < kSimTimeLimitNs);
  if (a.nodes <= 0 || a.vcpus <= 0 || bad_window || bad_slice ||
      a.reps <= 0 || a.shards <= 0 || a.threads < 0) {
    return std::nullopt;
  }
  return a;
}

std::optional<cluster::Approach> approach_from(const std::string& name) {
  for (cluster::Approach a : cluster::all_approaches()) {
    if (cluster::approach_name(a) == name) return a;
  }
  return std::nullopt;
}

// True when the approach sets guest slices itself, so a fixed --slice-ms
// would be silently overridden: the ATC and DSS controllers rewrite every
// guest slice each period, and VS gives latency-sensitive VMs its micro
// slice.
bool sets_slices(cluster::Approach a) {
  switch (a) {
    case cluster::Approach::kATC:
    case cluster::Approach::kATCPM:
    case cluster::Approach::kDSS:
    case cluster::Approach::kVS:
      return true;
    default:
      return false;
  }
}

// --workload accepts either a descriptor file or inline text.  A readable
// file wins; anything else is treated as inline (inline descriptors contain
// spaces/';', which no sensible path does).
std::string load_workload_text(const std::string& arg) {
  std::ifstream in(arg);
  if (!in) return arg;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// "%.17g": every double reads back exactly.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// One repetition's metric columns, in name order; trace_events only when
// the run was traced.  Every BSP key of a type-A run is its app's.
std::vector<std::pair<const char*, double>> metric_columns(
    const exp::CellResult& r, const Args& a) {
  std::vector<std::pair<const char*, double>> m = {
      {"events", static_cast<double>(r.events)},
      {"llc_miss_per_s", r.llc_miss_per_s},
      {"spin_s", r.spin_s},
      {"superstep_s", r.mean_superstep("")}};
  if (a.trace) {
    m.emplace_back("trace_events", static_cast<double>(r.trace_events));
  }
  return m;
}

char class_letter(workload::NpbClass cls) {
  return "ABC"[static_cast<int>(cls)];
}

// Rows describe the run `a` asked for and `cell`, the repetitions' shared
// slice and windows; row i is repetition i.
void write_jsonl(std::ostream& os, const Args& a, const exp::Cell& cell,
                 const std::vector<exp::CellResult>& results) {
  const cluster::ScenarioConfig layout;  // the VM layout every cell uses
  for (std::size_t rep = 0; rep < results.size(); ++rep) {
    os << "{\"trial\":" << rep << ",\"app\":\"" << a.app
       << "\",\"class\":\"" << class_letter(a.cls)
       << "\",\"approach\":\"" << a.approach << "\",\"nodes\":" << a.nodes
       << ",\"vcpus\":" << a.vcpus
       << ",\"vms_per_node\":" << layout.vms_per_node
       << ",\"pcpus_per_node\":" << layout.pcpus_per_node << ",\"slice_ms\":"
       << (cell.slice ? num(sim::to_millis(*cell.slice)) : "null")
       << ",\"seed\":" << a.seed << ",\"rep\":" << rep
       << ",\"warmup_s\":" << num(sim::to_seconds(cell.warmup))
       << ",\"measure_s\":" << num(sim::to_seconds(cell.measure))
       << ",\"metrics\":{";
    const char* sep = "";
    for (const auto& m : metric_columns(results[rep], a)) {
      os << sep << '"' << m.first << "\":" << num(m.second);
      sep = ",";
    }
    os << "}}\n";
  }
}

void write_csv(std::ostream& os, const Args& a, const exp::Cell& cell,
               const std::vector<exp::CellResult>& results) {
  os << "trial,app,class,approach,nodes,vcpus,slice_ms,seed,rep";
  for (const auto& m : metric_columns({}, a)) os << ',' << m.first;
  os << '\n';
  for (std::size_t rep = 0; rep < results.size(); ++rep) {
    os << rep << ',' << a.app << ',' << class_letter(a.cls) << ','
       << a.approach << ',' << a.nodes << ',' << a.vcpus << ','
       << (cell.slice ? num(sim::to_millis(*cell.slice)) : "adaptive") << ','
       << a.seed << ',' << rep;
    for (const auto& m : metric_columns(results[rep], a)) {
      os << ',' << num(m.second);
    }
    os << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  const auto approach = approach_from(args->approach);
  if (!approach || (args->slice_ms && sets_slices(*approach))) {
    usage();
    return 2;
  }

  // Resolve the workload up front, so that a typo or an unknown app fails
  // with its message before any repetition runs.
  workload::Descriptor desc;
  try {
    desc = args->workload.empty()
               ? workload::npb_descriptor(args->app, args->cls)
               : workload::Descriptor::parse(
                     load_workload_text(args->workload));
  } catch (const workload::DescriptorError& e) {
    std::fprintf(stderr, "error: --workload %s: %s\n",
                 args->workload.c_str(), e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (!args->workload.empty()) {
    // Rows and trace files name a descriptor run by its workload, class B.
    args->app = desc.name;
    args->cls = workload::NpbClass::kB;
  }
  atc::AtcConfig atc_cfg;
  atc_cfg.auto_classify = args->auto_classify;
  exp::Cell cell = exp::type_a(desc);
  cell.builder.nodes(args->nodes)
      .vcpus_per_vm(args->vcpus)
      .allow_wide_vms()  // motivation layouts run 16-VCPU VMs on 8 PCPUs
      .approach(*approach)
      .atc(atc_cfg)
      .shards(args->shards);
  if (args->slice_ms) cell.slice = sim::from_millis(*args->slice_ms);
  cell.warmup = static_cast<sim::SimTime>(args->warmup_s * 1e9);
  cell.measure = static_cast<sim::SimTime>(args->measure_s * 1e9);
  const std::string& name = desc.name;

  std::vector<exp::Cell> cells(static_cast<std::size_t>(args->reps), cell);
  for (std::size_t rep = 0; rep < cells.size(); ++rep) {
    exp::Cell& c = cells[rep];
    c.builder.seed(exp::rep_seed(args->seed, static_cast<int>(rep)));
    if (args->trace) {
      c.trace_stem =
          name + "_" + cluster::approach_name(*approach) + "_n" +
          std::to_string(args->nodes) + "_v" + std::to_string(args->vcpus) +
          "_" + (c.slice ? sim::format_time(*c.slice) : "adaptive") + "_s" +
          std::to_string(args->seed) + "_r" + std::to_string(rep);
    }
  }

  std::vector<exp::CellResult> results;
  try {
    results = exp::run_cells(cells, static_cast<std::size_t>(args->threads));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (args->trace) {
    const char* dir = std::getenv("ATCSIM_TRACE_DIR");
    std::fprintf(stderr, "trace: artifacts written under %s/\n",
                 dir != nullptr ? dir : "traces");
  }

  if (!args->jsonl_path.empty()) {
    std::ofstream out(args->jsonl_path);
    if (out) write_jsonl(out, *args, cell, results);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   args->jsonl_path.c_str());
      return 1;
    }
  }

  if (args->csv) {
    write_csv(std::cout, *args, cell, results);
    return 0;
  }

  // Mean across repetitions for the human-readable summary.
  double superstep = 0, spin = 0, miss_rate = 0, events = 0;
  for (const auto& r : results) {
    superstep += r.mean_superstep("");
    spin += r.spin_s;
    miss_rate += r.llc_miss_per_s;
    events += static_cast<double>(r.events);
  }
  const auto n = static_cast<double>(results.size());
  superstep /= n;
  spin /= n;
  miss_rate /= n;

  metrics::Table t("atcsim_cli: " + name + " on " +
                       std::to_string(args->nodes) + " nodes under " +
                       args->approach +
                       (args->reps > 1
                            ? " (mean of " + std::to_string(args->reps) +
                                  " reps)"
                            : ""),
                   {"metric", "value"});
  t.add_row({"mean superstep (ms)", metrics::fmt(superstep * 1e3, 2)});
  t.add_row({"avg spin latency (ms)", metrics::fmt(spin * 1e3, 2)});
  t.add_row({"LLC misses/s", metrics::fmt(miss_rate / 1e6, 1) + "M"});
  t.add_row({"simulation events", metrics::fmt(events / n, 0)});
  t.print(std::cout);
  return 0;
}
