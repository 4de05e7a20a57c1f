// Seeded descriptor generation + greedy minimization for the scenario
// fuzzer (tests/descriptor_fuzz_test.cc).  Lives in the library so the
// property tests can reuse the generator for round-trip coverage.
#pragma once

#include <functional>

#include "simcore/rng.h"
#include "workload/descriptor.h"

namespace atcsim::workload {

/// Emits a random descriptor that is valid by construction (throws
/// std::logic_error if a generator bug ever produces an invalid one):
/// ~80% parallel BSP programs mixing compute / think / io / send /
/// local_barrier phases under a global barrier, ~20% single-VCPU loop
/// programs of compute / think / io.  Deterministic in `rng`'s state.
Descriptor fuzz_descriptor(sim::Rng& rng);

/// Greedily shrinks a failing descriptor: drops phases one at a time, zeroes
/// jitter, and collapses rate_units, keeping each change only while
/// `still_fails` returns true.  Re-runs the predicate at most `budget` times
/// (each run typically replays a full scenario).
Descriptor minimize_descriptor(
    Descriptor d, const std::function<bool(const Descriptor&)>& still_fails,
    int budget = 48);

}  // namespace atcsim::workload
