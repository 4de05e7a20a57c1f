// Shared harness helpers for the figure-reproduction benches.
//
// Durations default to values that finish in seconds; set
// ATCSIM_BENCH_SCALE=N (e.g. 3) to multiply the measurement windows for
// tighter statistics.
#pragma once

#include <string>

#include "simcore/time.h"

namespace atcsim::exp {

/// ATCSIM_BENCH_SCALE multiplier: 1.0 when unset or invalid (not wholly a
/// finite number in (0, 1e6]).
double scale_factor();

/// `base` scaled by scale_factor().
sim::SimTime scaled(sim::SimTime base);

/// Standard bench preamble on stdout.
void banner(const std::string& what, const std::string& setup);

}  // namespace atcsim::exp
