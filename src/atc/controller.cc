#include "atc/controller.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"
#include "virt/platform.h"

namespace atcsim::atc {

using sim::SimTime;

namespace {

#if ATCSIM_TRACE_ENABLED
obs::TraceEvent atc_event(sim::SimTime now, std::uint8_t type,
                          const virt::Node& node, const virt::Vm& vm,
                          std::int64_t a0, std::int64_t a1) {
  obs::TraceEvent e;
  e.time = now;
  e.cat = obs::TraceCat::kAtc;
  e.type = type;
  e.node = node.id().value;
  e.vm = vm.id().value;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}
#endif

}  // namespace

AtcController::AtcController(virt::Node& node,
                             const sync::PeriodMonitor& monitor, AtcConfig cfg)
    : node_(&node), monitor_(&monitor), cfg_(cfg),
      history_(node.vms().size()),
      wakeup_rate_(node.vms().size(), 0.0) {
  if (cfg_.auto_classify) {
    classifier_ = std::make_unique<VmClassifier>(node, monitor);
  }
}

bool AtcController::treats_as_parallel(const virt::Vm& vm) const {
  if (vm.is_dom0()) return false;
  if (classifier_ != nullptr) return classifier_->is_parallel(vm);
  return vm.is_parallel();
}

void AtcController::on_period() {
  if (classifier_ != nullptr) classifier_->on_period();
#if ATCSIM_TRACE_ENABLED
  obs::TraceSink* sink = node_->platform().simulation().trace();
  const SimTime now = node_->platform().simulation().now();
#endif
  // Migration arrivals extend the node's VM slots (departures leave
  // tombstones, so surviving indices are stable).
  if (history_.size() < node_->vms().size()) {
    history_.resize(node_->vms().size());
    wakeup_rate_.resize(node_->vms().size(), 0.0);
  }
  // Algorithm 1's DEFAULT: the platform's default slice.
  const SimTime default_slice = node_->platform().params().default_time_slice;
  // Step 1: Algorithm 1 per parallel VM.
  bool any_parallel = false;
  SimTime min_slice = default_slice;
  for (std::size_t i = 0; i < node_->vms().size(); ++i) {
    if (node_->vms()[i] == nullptr) continue;  // migration tombstone
    virt::Vm& vm = *node_->vms()[i];
    if (!treats_as_parallel(vm)) continue;
    PeriodHistory& h = history_[i];
    const SimTime spin = monitor_->avg_spin_latency(vm.id());
    h.push(PeriodSample{spin, vm.time_slice()});
    SimTime slice = vm.time_slice();
    if (h.full()) slice = compute_time_slice(cfg_, default_slice, h);
    any_parallel = true;
    min_slice = std::min(min_slice, slice);
#if ATCSIM_TRACE_ENABLED
    ATCSIM_TRACE(sink, atc_event(now, obs::ev::kCandidate, *node_, vm,
                                 static_cast<std::int64_t>(slice),
                                 static_cast<std::int64_t>(spin)));
    if (slice <= cfg_.min_threshold) {
      ATCSIM_TRACE(sink, atc_event(now, obs::ev::kClamp, *node_, vm,
                                   static_cast<std::int64_t>(slice),
                                   static_cast<std::int64_t>(
                                       cfg_.min_threshold)));
    } else if (h.full() && slice >= default_slice) {
      ATCSIM_TRACE(sink, atc_event(now, obs::ev::kClamp, *node_, vm,
                                   static_cast<std::int64_t>(slice),
                                   static_cast<std::int64_t>(default_slice)));
    }
#endif
  }

  // Steps 2-3: uniform minimum for parallel VMs; admin/default otherwise.
  for (std::size_t i = 0; i < node_->vms().size(); ++i) {
    const auto& vm = node_->vms()[i];
    if (vm == nullptr || vm->is_dom0()) continue;
#if ATCSIM_TRACE_ENABLED
    const SimTime before = vm->time_slice();
#endif
    if (treats_as_parallel(*vm)) {
      vm->set_time_slice(any_parallel ? min_slice : default_slice);
    } else if (vm->has_admin_slice()) {
      vm->set_time_slice(vm->admin_slice());
    } else if (cfg_.adaptive_nonparallel) {
      // Sec. VI extension: latency-sensitive non-parallel VMs (frequent
      // wake-ups, modest CPU use) get a shorter slice for faster
      // interrupt turnaround; CPU-bound VMs keep the default.  Wake-ups
      // arrive in bursts, so the rate is smoothed across periods.
      const auto& snap = monitor_->last(vm->id());
      const double rate =
          static_cast<double>(snap.wakeups) /
          sim::to_seconds(node_->platform().params().accounting_period);
      wakeup_rate_[i] = 0.8 * wakeup_rate_[i] + 0.2 * rate;
      vm->set_time_slice(wakeup_rate_[i] >= kLatencySensitiveWakeupsHz
                             ? kLatencySensitiveSlice
                             : default_slice);
    } else {
      vm->set_time_slice(default_slice);
    }
#if ATCSIM_TRACE_ENABLED
    if (vm->time_slice() != before) {
      ATCSIM_TRACE(sink,
                   atc_event(now, obs::ev::kApply, *node_, *vm,
                             static_cast<std::int64_t>(vm->time_slice()),
                             treats_as_parallel(*vm) ? 1 : 0));
    }
#endif
  }
}

}  // namespace atcsim::atc
