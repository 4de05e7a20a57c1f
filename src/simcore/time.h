// Simulated-time primitives.
//
// All simulated time in atcsim is an integer count of nanoseconds since the
// start of the simulation.  Integer time keeps the discrete-event simulation
// exactly reproducible: there is no floating-point drift, and two events
// scheduled at the same instant are ordered by their insertion sequence.
#pragma once

#include <cstdint>
#include <string>

namespace atcsim::sim {

/// Simulated time point or duration, in nanoseconds.
using SimTime = std::int64_t;

/// Sentinel for "never" / unset deadlines.
inline constexpr SimTime kTimeNever = INT64_MAX;

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

namespace time_literals {
constexpr SimTime operator""_ns(unsigned long long v) {
  return static_cast<SimTime>(v);
}
constexpr SimTime operator""_us(unsigned long long v) {
  return static_cast<SimTime>(v) * kMicrosecond;
}
constexpr SimTime operator""_ms(unsigned long long v) {
  return static_cast<SimTime>(v) * kMillisecond;
}
constexpr SimTime operator""_s(unsigned long long v) {
  return static_cast<SimTime>(v) * kSecond;
}
}  // namespace time_literals

/// Converts a SimTime duration to fractional units.
constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}
constexpr double to_millis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Converts fractional milliseconds to SimTime (rounding to nearest ns).
constexpr SimTime from_millis(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMillisecond) + 0.5);
}
/// Converts fractional microseconds to SimTime (rounding to nearest ns).
constexpr SimTime from_micros(double us) {
  return static_cast<SimTime>(us * static_cast<double>(kMicrosecond) + 0.5);
}

/// Human-readable rendering, e.g. "30ms", "0.3ms", "1.25s".
std::string format_time(SimTime t);

}  // namespace atcsim::sim
