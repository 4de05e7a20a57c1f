// atcsim_cli — run a single scenario (or a small repetition sweep) from the
// command line.
//
//   $ ./atcsim_cli --app lu --class B --nodes 8 --approach ATC
//                  --warmup-s 2 --measure-s 6 [--reps 3]
//                  [--threads N] [--csv] [--jsonl out.jsonl]
//
// Builds evaluation type A (four identical virtual clusters of the chosen
// app) through cluster::ScenarioBuilder and executes it via the experiment
// runner (src/exp/): repetitions run in parallel across host threads.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "cluster/scenarios.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "metrics/report.h"

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
      switch (v[0]) {
        case 'A': a.cls = workload::NpbClass::kA; break;
        case 'B': a.cls = workload::NpbClass::kB; break;
        case 'C': a.cls = workload::NpbClass::kC; break;
        default: return std::nullopt;
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

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  const auto approach = approach_from(args->approach);
  if (!approach || (args->slice_ms && sets_slices(*approach))) {
    usage();
    return 2;
  }

  exp::SweepSpec spec;
  spec.name = "atcsim_cli";
  std::string workload_name;
  if (!args->workload.empty()) {
    spec.workload = load_workload_text(args->workload);
    // Validate up front so a typo fails with the parser's message instead of
    // surfacing mid-sweep.
    try {
      workload_name = workload::Descriptor::parse(spec.workload).name;
    } catch (const workload::DescriptorError& e) {
      std::fprintf(stderr, "error: --workload %s: %s\n",
                   args->workload.c_str(), e.what());
      return 2;
    }
  }
  spec.apps = {args->app};
  spec.classes = {args->cls};
  spec.approaches = {*approach};
  spec.nodes = {args->nodes};
  spec.vcpus_per_vm = {args->vcpus};
  spec.slices = {args->slice_ms ? sim::from_millis(*args->slice_ms)
                                : exp::kAdaptiveSlice};
  spec.seeds = {args->seed};
  spec.shards = args->shards;
  spec.repetitions = args->reps;
  spec.warmup = static_cast<sim::SimTime>(args->warmup_s * 1e9);
  spec.measure = static_cast<sim::SimTime>(args->measure_s * 1e9);
  spec.trace = args->trace;

  atc::AtcConfig atc_cfg;
  atc_cfg.auto_classify = args->auto_classify;

  exp::RunOptions opts;
  opts.threads = static_cast<std::size_t>(args->threads);
  opts.progress = !args->csv;

  std::vector<exp::TrialResult> results;
  try {
    results = exp::run_sweep(
        spec,
        [&](const exp::Trial& t) { return exp::run_type_a_trial(t, atc_cfg); },
        opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (args->trace) {
    const char* dir = std::getenv("ATCSIM_TRACE_DIR");
    std::fprintf(stderr, "trace: artifacts written under %s/\n",
                 dir != nullptr ? dir : "traces");
  }

  if (!args->jsonl_path.empty() &&
      !exp::write_jsonl_file(args->jsonl_path, spec, results)) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 args->jsonl_path.c_str());
    return 1;
  }

  if (args->csv) {
    exp::write_csv(std::cout, spec, results);
    return 0;
  }

  // Mean across repetitions for the human-readable summary.
  double superstep = 0, spin = 0, miss_rate = 0, events = 0;
  for (const auto& r : results) {
    superstep += r.metrics.at("superstep_s");
    spin += r.metrics.at("spin_s");
    miss_rate += r.metrics.at("llc_miss_per_s");
    events += r.metrics.at("events");
  }
  const auto n = static_cast<double>(results.size());
  superstep /= n;
  spin /= n;
  miss_rate /= n;

  const std::string prefix =
      workload_name.empty()
          ? args->app + workload::npb_class_suffix(args->cls)
          : workload_name;
  metrics::Table t("atcsim_cli: " + prefix + " on " +
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
