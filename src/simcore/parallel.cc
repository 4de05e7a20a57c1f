#include "simcore/parallel.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace atcsim::sim {

std::size_t available_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&mask), 1));
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (threads == 0) threads = available_cpus();
  threads = std::min(threads, n);

  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  {
    // jthreads join on scope exit, also when spawning one of them throws.
    std::vector<std::jthread> workers;
    for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work);
    work();
  }

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace atcsim::sim
