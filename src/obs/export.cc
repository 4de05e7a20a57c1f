#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>

namespace atcsim::obs {

namespace {

constexpr const char* kCompactHeader = "# atcsim trace v1";

/// Track name for the chrome export: a VCPU identified as "vm<id>/v<id>".
std::string slice_name(const TraceEvent& e) {
  return "vm" + std::to_string(e.vm) + "/v" + std::to_string(e.vcpu);
}

/// Chrome `ts` is fractional microseconds; 3 decimals keep ns precision.
std::string chrome_ts(sim::SimTime t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d", t / 1000,
                static_cast<int>(t % 1000));
  return buf;
}

void write_args(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{\"vm\":" << e.vm << ",\"vcpu\":" << e.vcpu
     << ",\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << "}";
}

}  // namespace

std::string format_event(const TraceEvent& e) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%" PRId64 "\t%s.%s\t%d\t%d\t%d\t%d\t%" PRId64 "\t%" PRId64,
                e.time, cat_name(e.cat), type_name(e.cat, e.type), e.node,
                e.vm, e.vcpu, e.pcpu, e.a0, e.a1);
  return buf;
}

std::vector<TraceEvent> merged_events(
    const std::vector<const TraceSink*>& sinks) {
  std::vector<TraceEvent> events;
  std::size_t total = 0;
  for (const TraceSink* sink : sinks) total += sink->size();
  events.reserve(total);
  for (const TraceSink* sink : sinks) {
    const auto snapshot = sink->snapshot();
    events.insert(events.end(), snapshot.begin(), snapshot.end());
  }
  // Stable: same-timestamp events keep shard order, so the merge is a pure
  // function of the per-shard streams (thread-count independent).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

namespace {

std::uint64_t dropped_total(const std::vector<const TraceSink*>& sinks) {
  std::uint64_t dropped = 0;
  for (const TraceSink* sink : sinks) dropped += sink->dropped();
  return dropped;
}

void write_compact_events(std::ostream& os,
                          const std::vector<TraceEvent>& events,
                          std::uint64_t dropped) {
  os << kCompactHeader << '\n';
  for (const TraceEvent& e : events) os << format_event(e) << '\n';
  os << "# dropped=" << dropped << '\n';
}

void write_chrome_events(std::ostream& os,
                         const std::vector<TraceEvent>& events) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{";
    if (e.cat == TraceCat::kVcpu &&
        (e.type == ev::kDispatch || e.type == ev::kLeave)) {
      // Dispatch/leave pairs become duration slices on the PCPU track.
      os << "\"name\":\"" << slice_name(e) << "\",\"cat\":\"vcpu\",\"ph\":\""
         << (e.type == ev::kDispatch ? 'B' : 'E') << "\",\"ts\":"
         << chrome_ts(e.time) << ",\"pid\":" << e.node << ",\"tid\":" << e.pcpu
         << ",";
    } else {
      os << "\"name\":\"" << cat_name(e.cat) << '.'
         << type_name(e.cat, e.type) << "\",\"cat\":\"" << cat_name(e.cat)
         << "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" << chrome_ts(e.time)
         << ",\"pid\":" << e.node << ",\"tid\":"
         << (e.pcpu >= 0 ? e.pcpu : e.vcpu) << ",";
    }
    write_args(os, e);
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace

void write_compact(std::ostream& os,
                   const std::vector<const TraceSink*>& sinks) {
  write_compact_events(os, merged_events(sinks), dropped_total(sinks));
}

void write_chrome_json(std::ostream& os,
                       const std::vector<const TraceSink*>& sinks) {
  write_chrome_events(os, merged_events(sinks));
}

bool write_trace_files(const std::vector<const TraceSink*>& sinks,
                       const std::string& dir, const std::string& stem) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;
  const auto base = std::filesystem::path(dir) / stem;
  // One merge feeds both formats.
  const std::vector<TraceEvent> events = merged_events(sinks);
  {
    std::ofstream out(base.string() + ".trace");
    if (!out) return false;
    write_compact_events(out, events, dropped_total(sinks));
    if (!out) return false;
  }
  {
    std::ofstream out(base.string() + ".json");
    if (!out) return false;
    write_chrome_events(out, events);
    if (!out) return false;
  }
  return true;
}

}  // namespace atcsim::obs
