// Shared scaffolding for every bench binary: the figure-harness wrapper
// (scale/banner/slice helpers re-exported from the experiment-runner
// library) plus, for the tracked perf-report binaries (perf_report,
// sched_report, net_report, pdes_report), the global operator-new
// allocation counter (alloc_counter.cc, linked into every bench), the
// best-of-N bench harness, and the JSON run-record / history-append
// emitters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cluster/scenario.h"
#include "cluster/scenarios.h"
#include "exp/bench_util.h"
#include "exp/emit.h"
#include "exp/runner.h"
#include "metrics/report.h"

namespace atcsim::bench {

/// Heap allocations made so far (alloc_counter.cc's operator new).
extern std::atomic<std::uint64_t> g_allocs;

using namespace sim::time_literals;

using exp::banner;
using exp::scale_factor;
using exp::scaled;
using exp::set_global_guest_slice;

using Clock = std::chrono::steady_clock;

struct Result {
  std::uint64_t events = 0;      // work items per repetition
  double wall_s = 0;             // best-of-N wall seconds
  double per_sec = 0;            // events / wall_s
  double allocs_per_event = 0;   // heap allocations per event, best rep
};

/// Runs `body` (which returns the number of work items processed) `reps`
/// times after one untimed warmup, keeping the fastest repetition.
template <typename Body>
Result bench(int reps, Body&& body) {
  (void)body();  // warmup: populate slabs, fault in pages
  Result r;
  r.wall_s = 1e100;
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = Clock::now();
    const std::uint64_t n = body();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - a0;
    if (s < r.wall_s) {
      r.wall_s = s;
      r.events = n;
      r.allocs_per_event =
          n == 0 ? 0 : static_cast<double>(allocs) / static_cast<double>(n);
    }
  }
  r.per_sec = r.wall_s > 0 ? static_cast<double>(r.events) / r.wall_s : 0;
  return r;
}

inline std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

inline void emit_result(std::ostringstream& os, const char* name,
                        const Result& r, bool last = false) {
  os << "      \"" << name << "\": {\"per_sec\": " << json_number(r.per_sec)
     << ", \"events\": " << r.events
     << ", \"wall_s\": " << json_number(r.wall_s)
     << ", \"allocs_per_event\": " << json_number(r.allocs_per_event) << "}"
     << (last ? "\n" : ",\n");
}

inline std::string iso_now() {
  char buf[32];
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Appends `record` into the history array of `path` (creating the file
/// with the given `suite` name when missing or empty).  The file is always
/// written by these tools, so the closing "  ]\n}" marker is structural.
/// A non-empty file without it is refused rather than rewritten: the error
/// goes to stderr, the file stays untouched and the call returns false, so
/// the caller can exit non-zero instead of losing committed history.
[[nodiscard]] inline bool append_history(const std::string& path,
                                         const std::string& record,
                                         const char* suite) {
  std::string existing;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      existing = ss.str();
    }
  }
  const std::string tail = "\n  ]\n}\n";
  std::string out;
  if (existing.empty()) {
    out = std::string("{\n  \"schema\": 1,\n  \"suite\": \"") + suite +
          "\",\n  \"history\": [\n" + record + tail;
  } else {
    const std::size_t at = existing.rfind(tail);
    if (at == std::string::npos) {
      std::fprintf(stderr,
                   "%s: no closing history lines; refusing to rewrite it\n",
                   path.c_str());
      return false;
    }
    out = existing.substr(0, at) + ",\n" + record + tail;
  }
  std::ofstream of(path, std::ios::trunc);
  of << out;
  if (!of.flush()) {
    std::fprintf(stderr, "%s: write failed\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace atcsim::bench

#ifndef ATCSIM_BUILD_TYPE
#define ATCSIM_BUILD_TYPE "unknown"
#endif
