#include "simcore/rng.h"

#include <cassert>
#include <cmath>

namespace atcsim::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * next_double();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Modulo bias is negligible for span << 2^64 (our spans are tiny).
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

SimTime Rng::jittered(SimTime base, double fraction) {
  assert(fraction >= 0.0);
  const double f = uniform(1.0 - fraction, 1.0 + fraction);
  const double v = static_cast<double>(base) * f;
  return v <= 0.0 ? 0 : static_cast<SimTime>(v);
}

SimTime Rng::jittered_floor(SimTime base, double fraction) {
  assert(fraction >= 0.0);
  const double v = static_cast<double>(base) * (1.0 - fraction);
  if (v <= 1.0) return 0;
  // jittered() truncates double(base) * f with f >= 1 - fraction; the -1
  // absorbs any rounding difference between that product and this one.
  return static_cast<SimTime>(v) - 1;
}

Rng Rng::split(std::uint64_t salt) {
  // Mix the salt with fresh output so sibling streams are independent.
  return Rng(next_u64() ^ (salt * 0xD1B54A32D192ED03ULL) ^ 0xA0761D6478BD642FULL);
}

}  // namespace atcsim::sim
