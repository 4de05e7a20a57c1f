// Shared by the three alloc_guard_test sources: alloc_guard_test.cc installs
// a global operator-new hook that counts every heap allocation of the
// binary, so the guards live in their own binary where the hook cannot
// interfere with the rest of the suite.
#pragma once

#include <cstdint>

namespace atcsim {

/// Heap allocations made so far by the whole process.
std::uint64_t allocs();

/// Bytes those allocations requested, freed or not.
std::uint64_t alloc_bytes();

/// Allocations made so far and not yet freed.
std::int64_t live_allocs();

}  // namespace atcsim
