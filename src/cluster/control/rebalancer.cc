#include "cluster/control/rebalancer.h"

#include <limits>

#include "virt/engine.h"

namespace atcsim::cluster::control {

namespace {

/// Minimum (hottest - coldest) pressure gap, in LLC misses per second per
/// cache domain, before a move is considered.
constexpr double kMinPressureGap = 1000.0;

/// Periods to sit out after a migration (observe before re-acting).  Must
/// exceed the miss windows' EWMA decay time at the gap threshold: a migrated
/// guest restarts its windowed rate from zero on the destination, so until
/// the source's stale EWMA (halving once per period) has decayed below
/// kMinPressureGap the pair shows a phantom gap that would keep ping-ponging
/// guests.  Ten halvings shrink any realistic rate (~1e6/s) through the
/// 1e3/s margin.
constexpr std::uint64_t kCooldownPeriods = 10;

}  // namespace

ClusterRebalancer::ClusterRebalancer(virt::Platform& platform,
                                     Migrator& migrator)
    : platform_(&platform), migrator_(&migrator) {}

double ClusterRebalancer::advance_window(const virt::Vm& vm,
                                         double period_s) {
  const std::size_t i = static_cast<std::size_t>(vm.id().index());
  if (i >= windows_.size()) windows_.resize(platform_->vm_count());
  MissWindow& w = windows_[i];
  const std::uint64_t total = vm.totals().llc_misses;
  if (!w.seen) {
    w.seen = true;  // prime; no rate until a full window elapsed
  } else {
    // Known defect, kept so outputs do not move: Scenario's warmup reset
    // zeroes the counter, so the first difference after it wraps
    // (DESIGN.md §12).
    const double delta = static_cast<double>(total - w.last_total);
    w.rate = 0.5 * w.rate + 0.5 * (delta / period_s);
  }
  w.last_total = total;
  return w.rate;
}

void ClusterRebalancer::on_period() {
  ++periods_;
  const virt::ModelParams& params = platform_->params();

  // One sweep advances every guest's miss window and scores each host of
  // this cell (= this shard's platform): the sum of its guests' rates per
  // LLC domain (two sockets absorb twice the misses before thrashing).
  const double period_s = sim::to_seconds(params.accounting_period);
  const double domains = static_cast<double>(params.llc_domains_per_node);
  virt::Node* hot = nullptr;
  virt::Node* cold = nullptr;
  double hot_p = -1.0;
  double cold_p = std::numeric_limits<double>::infinity();
  for (auto& node : platform_->nodes()) {
    double sum = 0.0;
    for (const auto& vm : node->vms()) {
      if (vm == nullptr || vm->is_dom0()) continue;
      sum += advance_window(*vm, period_s);
    }
    const double p = sum / domains;
    if (p > hot_p) {
      hot_p = p;
      hot = node.get();
    }
    if (p < cold_p) {
      cold_p = p;
      cold = node.get();
    }
  }

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return;
  }
  if (hot == nullptr || cold == nullptr || hot == cold) return;
  if (hot_p - cold_p < kMinPressureGap) return;

  // Busiest migratable guest on the hot host; ties go to the lower global
  // id so the decision sequence is independent of node-list layout.
  virt::Vm* victim = nullptr;
  double victim_rate = -1.0;
  for (auto& vm : hot->vms()) {
    if (vm == nullptr || vm->is_dom0()) continue;
    if (!migrator_->can_migrate(*vm)) continue;
    const double r = windows_[static_cast<std::size_t>(vm->id().index())].rate;
    if (r > victim_rate ||
        (r == victim_rate && victim != nullptr &&
         vm->global_id() < victim->global_id())) {
      victim_rate = r;
      victim = vm.get();
    }
  }
  if (victim == nullptr || victim_rate <= 0.0) return;

  migrator_->migrate(*victim, platform_->global_node_id(*cold));
  ++migrations_;
  cooldown_left_ = kCooldownPeriods;
}

}  // namespace atcsim::cluster::control
