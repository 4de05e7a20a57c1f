// Host-side parallelism for parameter sweeps.
//
// Each simulation instance is strictly single-threaded; experiments run many
// independent instances (one per configuration / repetition).  parallel_for
// fans those out over worker threads.
#pragma once

#include <cstddef>
#include <functional>

namespace atcsim::sim {

/// CPUs the calling thread may run on: the size of its sched_getaffinity
/// mask (which taskset and cpusets narrow; hardware_concurrency() ignores
/// them), at least 1.  Falls back to std::thread::hardware_concurrency()
/// when the mask cannot be read.
std::size_t available_cpus();

/// Runs body(i) for every i in [0, n).  Workers (the caller plus up to
/// `threads - 1` spawned threads) take indices from a shared atomic counter.
/// `threads == 0` selects available_cpus(); `threads == 1`
/// runs every iteration on the caller, in index order.  Iterations must be
/// independent.  Every iteration runs even when some throw; afterwards the
/// exception of the lowest throwing index is rethrown.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace atcsim::sim
