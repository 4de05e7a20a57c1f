// Contention-aware cluster rebalancer (Approach::kPM, "placement
// management").
//
// Complements ATC's time-slice control with the orthogonal spatial knob: at
// every VMM accounting period it reads each guest's LLC-miss counter (the
// Xenoprof substitute the engine charges on cache refills), keeps a windowed
// miss rate per guest, scores every host of its cell by LLC pressure and,
// when the gap between the hottest and coldest host exceeds a margin,
// live-migrates the busiest migratable guest off the hot host.  One move per
// period with a cooldown, so decisions observe the effect of the previous
// move before making the next — the classic hysteresis that keeps
// contention controllers from thrashing.
//
// Fully deterministic: no randomness, ties broken by lower global VM id, so
// sharded runs reproduce the unsharded decision sequence exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/control/migrator.h"

namespace atcsim::cluster::control {

class ClusterRebalancer {
 public:
  /// Both references must outlive the rebalancer.
  ClusterRebalancer(virt::Platform& platform, Migrator& migrator);

  /// Period hook: scores this cell's hosts and orders at most one move.
  void on_period();

  std::uint64_t periods_observed() const { return periods_; }
  std::uint64_t migrations_ordered() const { return migrations_; }

 private:
  /// Windowed LLC-miss rate of one guest, indexed by platform-local VmId:
  /// a guest that migrates in restarts from zero under its new id (its
  /// cache is cold anyway).
  struct MissWindow {
    std::uint64_t last_total = 0;
    double rate = 0.0;  ///< EWMA misses/second, alpha 1/2 per period
    bool seen = false;  ///< last_total valid (first sight primes it)
  };

  /// Advances `vm`'s window by one period and returns its rate.
  double advance_window(const virt::Vm& vm, double period_s);

  virt::Platform* platform_;
  Migrator* migrator_;
  std::vector<MissWindow> windows_;
  std::uint64_t periods_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t cooldown_left_ = 0;
};

}  // namespace atcsim::cluster::control
