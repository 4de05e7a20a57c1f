#include "exp/bench_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace atcsim::exp {

double scale_factor() {
  const char* env = std::getenv("ATCSIM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  // The whole value must parse ("0.5x" is invalid, not 0.5).  The cap
  // keeps scaled() windows far inside SimTime's range.
  const char* end = env + std::strlen(env);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(env, end, v);
  const bool ok = ec == std::errc{} && ptr == end;
  return ok && std::isfinite(v) && v > 0.0 && v <= 1e6 ? v : 1.0;
}

sim::SimTime scaled(sim::SimTime base) {
  return static_cast<sim::SimTime>(static_cast<double>(base) *
                                   scale_factor());
}

void banner(const std::string& what, const std::string& setup) {
  std::printf("atcsim bench: %s\n  setup: %s\n  (simulated platform; shapes "
              "reproduce the paper, absolute values are model-relative)\n\n",
              what.c_str(), setup.c_str());
}

}  // namespace atcsim::exp
