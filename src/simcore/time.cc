#include "simcore/time.h"

#include <cmath>
#include <cstdio>

namespace atcsim::sim {

std::string format_time(SimTime t) {
  char buf[64];
  if (t == kTimeNever) return "never";
  // Sign and magnitude apart: -t overflows for INT64_MIN.
  const char* sign = t < 0 ? "-" : "";
  const double ns = std::fabs(static_cast<double>(t));
  if (ns < kMicrosecond) {
    std::snprintf(buf, sizeof buf, "%s%.0fns", sign, ns);
  } else if (ns < kMillisecond) {
    std::snprintf(buf, sizeof buf, "%s%.3gus", sign, ns / kMicrosecond);
  } else if (ns < kSecond) {
    std::snprintf(buf, sizeof buf, "%s%.4gms", sign, ns / kMillisecond);
  } else {
    std::snprintf(buf, sizeof buf, "%s%.4gs", sign, ns / kSecond);
  }
  return buf;
}

}  // namespace atcsim::sim
