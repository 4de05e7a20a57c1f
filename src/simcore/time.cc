#include "simcore/time.h"

#include <cstdio>

namespace atcsim::sim {

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

}  // namespace atcsim::sim
