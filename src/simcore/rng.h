// Deterministic pseudo-random number generation.
//
// xoshiro256** (Blackman & Vigna) seeded through SplitMix64.  We implement it
// ourselves rather than using std::mt19937 so that streams are cheap to
// split (one independent stream per VM/rank) and identical across standard
// library implementations.
#pragma once

#include <cstdint>

#include "simcore/time.h"

namespace atcsim::sim {

class Rng {
 public:
  /// Seeds the generator; equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Duration jittered by +/- `fraction` uniformly, never below zero.
  SimTime jittered(SimTime base, double fraction);

  /// Hard lower bound on every value jittered(base, fraction) can return,
  /// with a one-tick margin for floating-point rounding.  Workloads use it
  /// to promise minimum compute/think durations to the sharded
  /// synchronizer's output bound (Workload::effect_distance).
  static SimTime jittered_floor(SimTime base, double fraction);

  /// Derives an independent stream; deterministic in (parent seed, salt).
  Rng split(std::uint64_t salt);

 private:
  std::uint64_t s_[4];
};

}  // namespace atcsim::sim
