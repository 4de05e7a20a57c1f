#include "workload/npb_profiles.h"

#include <cassert>
#include <stdexcept>

namespace atcsim::workload {

namespace {

using sim::SimTime;
using namespace sim::time_literals;

struct Base {
  const char* name;
  SimTime compute;          // class-B per-rank compute per superstep
  std::uint64_t msg_bytes;  // class-B per-VM exchange volume per superstep
  int sync_rounds;          // intra-VM sync frequency (lu highest)
  double cache_sens;
};

// Class-B baselines; compute is the *effective global synchronization
// period* of the code (lu's wavefront sweeps synchronize most often; is
// synchronizes rarely but moves the largest volumes).  See header.
constexpr Base kBases[] = {
    {"lu", 8'000'000 /*8ms*/, 30 * 1024, 4, 1.0},
    {"cg", 10'000'000 /*10ms*/, 100 * 1024, 3, 0.8},
    {"sp", 15'000'000 /*15ms*/, 120 * 1024, 3, 1.0},
    {"bt", 20'000'000 /*20ms*/, 150 * 1024, 2, 1.1},
    {"mg", 22'000'000 /*22ms*/, 300 * 1024, 2, 1.2},
    {"is", 30'000'000 /*30ms*/, 256 * 1024, 1, 0.9},
};

}  // namespace

BspConfig npb_profile(const std::string& app, NpbClass cls) {
  for (const Base& b : kBases) {
    if (app != b.name) continue;
    BspConfig cfg;
    cfg.name = app + npb_class_suffix(cls);
    double compute_scale = 1.0;
    double msg_scale = 1.0;
    switch (cls) {
      case NpbClass::kA:
        compute_scale = 0.5;
        msg_scale = 0.5;
        break;
      case NpbClass::kB:
        break;
      case NpbClass::kC:
        compute_scale = 2.5;
        msg_scale = 2.0;
        break;
    }
    cfg.compute_per_superstep =
        static_cast<SimTime>(static_cast<double>(b.compute) * compute_scale);
    cfg.bytes_per_msg = static_cast<std::uint64_t>(
        static_cast<double>(b.msg_bytes) * msg_scale);
    cfg.sync_rounds = b.sync_rounds;
    cfg.cache_sensitivity = b.cache_sens;
    cfg.compute_jitter = 0.05;
    return cfg;
  }
  throw std::invalid_argument("unknown NPB application: " + app);
}

Descriptor npb_descriptor(const std::string& app, NpbClass cls) {
  return Descriptor::from_bsp(npb_profile(app, cls));
}

const std::vector<std::string>& npb_apps() {
  static const std::vector<std::string> apps = {"lu", "is", "sp",
                                                "bt", "mg", "cg"};
  return apps;
}

std::string npb_class_suffix(NpbClass cls) {
  switch (cls) {
    case NpbClass::kA:
      return ".A";
    case NpbClass::kB:
      return ".B";
    case NpbClass::kC:
      return ".C";
  }
  return "";
}

}  // namespace atcsim::workload
