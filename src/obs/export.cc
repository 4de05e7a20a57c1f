#include "obs/export.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <string_view>

namespace atcsim::obs {

namespace {

constexpr const char* kCompactHeader = "# atcsim trace v1";

/// One exported record, assembled in a stack buffer and written with one
/// call.  Names come from fixed tables and a number takes at most 20
/// characters, so the longest record of either format (under 300 bytes)
/// fits; a longer one would be truncated, never overrun.
class Record {
 public:
  Record& text(std::string_view s) {
    const std::size_t n =
        std::min(s.size(), static_cast<std::size_t>(end() - p_));
    std::memcpy(p_, s.data(), n);
    p_ += n;
    return *this;
  }
  Record& ch(char c) {
    if (p_ != end()) *p_++ = c;
    return *this;
  }
  Record& num(std::int64_t v) {
    p_ = std::to_chars(p_, end(), v).ptr;
    return *this;
  }
  /// Chrome `ts` is fractional microseconds; 3 decimals keep ns precision.
  Record& micros(sim::SimTime t) {
    if (t < 0) {
      // C's truncating division and "%03d" decide a negative time's text.
      char buf[48];
      const int n = std::snprintf(buf, sizeof buf, "%" PRId64 ".%03d",
                                  t / 1000, static_cast<int>(t % 1000));
      return text({buf, static_cast<std::size_t>(n)});
    }
    const auto ns = static_cast<int>(t % 1000);
    return num(t / 1000)
        .ch('.')
        .ch(static_cast<char>('0' + ns / 100))
        .ch(static_cast<char>('0' + ns / 10 % 10))
        .ch(static_cast<char>('0' + ns % 10));
  }

  std::string_view view() const {
    return {buf_, static_cast<std::size_t>(p_ - buf_)};
  }
  void write_to(std::ostream& os) const {
    os.write(buf_, static_cast<std::streamsize>(p_ - buf_));
  }

 private:
  char* end() { return buf_ + sizeof buf_; }

  char buf_[384];
  char* p_ = buf_;
};

/// "<time>\t<cat>.<type>\t<node>\t<vm>\t<vcpu>\t<pcpu>\t<a0>\t<a1>"
void compact_line(Record& r, const TraceEvent& e) {
  r.num(e.time).ch('\t').text(cat_name(e.cat)).ch('.');
  r.text(type_name(e.cat, e.type)).ch('\t').num(e.node).ch('\t');
  r.num(e.vm).ch('\t').num(e.vcpu).ch('\t').num(e.pcpu).ch('\t');
  r.num(e.a0).ch('\t').num(e.a1);
}

/// One chrome event object, without the separator before it.
void chrome_record(Record& r, const TraceEvent& e) {
  r.text("{\"name\":\"");
  if (e.cat == TraceCat::kVcpu &&
      (e.type == ev::kDispatch || e.type == ev::kLeave)) {
    // Dispatch/leave pairs become duration slices on the PCPU track,
    // named for the VCPU: "vm<id>/v<id>".
    r.text("vm").num(e.vm).text("/v").num(e.vcpu);
    r.text("\",\"cat\":\"vcpu\",\"ph\":\"");
    r.ch(e.type == ev::kDispatch ? 'B' : 'E').text("\",\"ts\":");
    r.micros(e.time).text(",\"pid\":").num(e.node);
    r.text(",\"tid\":").num(e.pcpu);
  } else {
    r.text(cat_name(e.cat)).ch('.').text(type_name(e.cat, e.type));
    r.text("\",\"cat\":\"").text(cat_name(e.cat));
    r.text("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":").micros(e.time);
    r.text(",\"pid\":").num(e.node);
    r.text(",\"tid\":").num(e.pcpu >= 0 ? e.pcpu : e.vcpu);
  }
  r.text(",\"args\":{\"vm\":").num(e.vm).text(",\"vcpu\":").num(e.vcpu);
  r.text(",\"a0\":").num(e.a0).text(",\"a1\":").num(e.a1).text("}}");
}

}  // namespace

std::string format_event(const TraceEvent& e) {
  Record r;
  compact_line(r, e);
  return std::string(r.view());
}

std::vector<TraceEvent> merged_events(
    const std::vector<const TraceSink*>& sinks) {
  std::vector<TraceEvent> events;
  std::size_t total = 0;
  for (const TraceSink* sink : sinks) total += sink->size();
  events.reserve(total);
  // Stable by timestamp with the sinks' order breaking ties, so the merge
  // is a pure function of the per-shard streams (thread-count independent).
  // Each sink's stream is in time order as a rule, so merging it onto the
  // merged prefix gives what a stable sort of the concatenation would.
  const auto by_time = [](const TraceEvent& a, const TraceEvent& b) {
    return a.time < b.time;
  };
  bool runs_sorted = true;
  for (const TraceSink* sink : sinks) {
    const auto run = static_cast<std::ptrdiff_t>(events.size());
    sink->append_to(events);
    const auto begin = events.begin() + run;
    runs_sorted = runs_sorted && std::is_sorted(begin, events.end(), by_time);
    if (runs_sorted && begin != events.begin() && begin != events.end() &&
        by_time(*begin, *(begin - 1))) {
      std::inplace_merge(events.begin(), begin, events.end(), by_time);
    }
  }
  if (!runs_sorted) std::stable_sort(events.begin(), events.end(), by_time);
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
  for (const TraceEvent& e : events) {
    Record r;
    compact_line(r, e);
    r.ch('\n').write_to(os);
  }
  os << "# dropped=" << dropped << '\n';
}

void write_chrome_events(std::ostream& os,
                         const std::vector<TraceEvent>& events) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    Record r;
    if (!first) r.ch(',');
    first = false;
    r.ch('\n');
    chrome_record(r, e);
    r.write_to(os);
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
