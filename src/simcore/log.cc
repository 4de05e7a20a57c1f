#include "simcore/log.h"

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "simcore/time.h"

namespace atcsim::sim {

namespace {
LogLevel g_level = LogLevel::kError;
}  // namespace

LogLevel log_level() { return g_level; }
void set_log_level(LogLevel level) { g_level = level; }

std::string format_time(SimTime t) {
  char buf[64];
  if (t == kTimeNever) return "never";
  if (t < 0) {
    std::string out(1, '-');
    out += format_time(-t);
    return out;
  }
  if (t < kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(t));
  } else if (t < kMillisecond) {
    std::snprintf(buf, sizeof buf, "%.3gus", to_micros(t));
  } else if (t < kSecond) {
    std::snprintf(buf, sizeof buf, "%.4gms", to_millis(t));
  } else {
    std::snprintf(buf, sizeof buf, "%.4gs", to_seconds(t));
  }
  return buf;
}

namespace detail {

void log_line(LogLevel level, const std::string& msg) {
  const char* tag = level == LogLevel::kError  ? "E"
                    : level == LogLevel::kInfo ? "I"
                                               : "D";
  std::fprintf(stderr, "[%s] %s\n", tag, msg.c_str());
}

std::string format_args(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    out.assign(buf.data(), static_cast<std::size_t>(needed));
  }
  va_end(args);
  return out;
}

}  // namespace detail
}  // namespace atcsim::sim
