#include "exp/bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace atcsim::exp {

double scale_factor() {
  const char* env = std::getenv("ATCSIM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  // The cap keeps scaled() windows far inside SimTime's range.
  const double v = std::atof(env);
  return std::isfinite(v) && v > 0.0 && v <= 1e6 ? v : 1.0;
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

void set_global_guest_slice(cluster::Scenario& s, sim::SimTime slice) {
  for (virt::Vm* vm : s.guest_vms()) vm->set_time_slice(slice);
}

}  // namespace atcsim::exp
