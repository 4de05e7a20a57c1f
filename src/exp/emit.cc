#include "exp/emit.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>

namespace atcsim::exp {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

char class_letter(workload::NpbClass cls) {
  return "ABC"[static_cast<int>(cls)];
}

std::string slice_ms_field(sim::SimTime slice) {
  return slice == kAdaptiveSlice ? "null" : num(sim::to_millis(slice));
}

}  // namespace

std::string jsonl_row(const Trial& t, const TrialResult& r) {
  std::string row = "{";
  row += "\"trial\":" + std::to_string(t.id);
  row += ",\"app\":\"" + json_escape(t.app) + "\"";
  row += ",\"class\":\"";
  row += class_letter(t.cls);
  row += "\"";
  row += ",\"approach\":\"" + cluster::approach_name(t.approach) + "\"";
  row += ",\"nodes\":" + std::to_string(t.nodes);
  row += ",\"vcpus\":" + std::to_string(t.vcpus);
  row += ",\"vms_per_node\":" + std::to_string(t.vms_per_node);
  row += ",\"pcpus_per_node\":" + std::to_string(t.pcpus_per_node);
  row += ",\"slice_ms\":" + slice_ms_field(t.slice);
  row += ",\"seed\":" + std::to_string(t.base_seed);
  row += ",\"rep\":" + std::to_string(t.rep);
  row += ",\"warmup_s\":" + num(sim::to_seconds(t.warmup));
  row += ",\"measure_s\":" + num(sim::to_seconds(t.measure));
  row += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    if (!first) row += ",";
    first = false;
    row += '"';
    row += json_escape(name);
    row += "\":" + num(value);
  }
  row += "}}";
  return row;
}

void write_jsonl(std::ostream& os, const SweepSpec& spec,
                 const std::vector<TrialResult>& results) {
  const auto trials = expand(spec);
  for (const Trial& t : trials) {
    const auto idx = static_cast<std::size_t>(t.id);
    if (idx >= results.size()) break;
    os << jsonl_row(t, results[idx]) << '\n';
  }
}

void write_csv(std::ostream& os, const SweepSpec& spec,
               const std::vector<TrialResult>& results) {
  const auto trials = expand(spec);
  std::set<std::string> metric_names;
  for (const auto& r : results) {
    for (const auto& [name, value] : r.metrics) metric_names.insert(name);
  }
  os << "trial,app,class,approach,nodes,vcpus,slice_ms,seed,rep";
  for (const auto& name : metric_names) os << ',' << name;
  os << '\n';
  for (const Trial& t : trials) {
    const auto idx = static_cast<std::size_t>(t.id);
    if (idx >= results.size()) break;
    os << t.id << ',' << t.app << ',' << class_letter(t.cls) << ','
       << cluster::approach_name(t.approach) << ',' << t.nodes << ','
       << t.vcpus << ','
       << (t.slice == kAdaptiveSlice ? std::string("adaptive")
                                     : num(sim::to_millis(t.slice)))
       << ',' << t.base_seed << ',' << t.rep;
    for (const auto& name : metric_names) {
      os << ',';
      auto it = results[idx].metrics.find(name);
      if (it != results[idx].metrics.end()) os << num(it->second);
    }
    os << '\n';
  }
}

bool write_jsonl_file(const std::string& path, const SweepSpec& spec,
                      const std::vector<TrialResult>& results) {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out, spec, results);
  return static_cast<bool>(out);
}

bool write_csv_file(const std::string& path, const SweepSpec& spec,
                    const std::vector<TrialResult>& results) {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out, spec, results);
  return static_cast<bool>(out);
}

void emit_results_env(const SweepSpec& spec,
                      const std::vector<TrialResult>& results) {
  const char* dir = std::getenv("ATCSIM_RESULTS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = (std::filesystem::path(dir) / spec.name).string();
  if (write_jsonl_file(stem + ".jsonl", spec, results) &&
      write_csv_file(stem + ".csv", spec, results)) {
    std::fprintf(stderr, "exp: wrote %s.jsonl and %s.csv\n", stem.c_str(),
                 stem.c_str());
  } else {
    std::fprintf(stderr, "exp: failed to write results under %s\n", dir);
  }
}

}  // namespace atcsim::exp
