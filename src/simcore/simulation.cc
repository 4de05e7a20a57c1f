#include "simcore/simulation.h"

#include <cassert>

namespace atcsim::sim {

void Simulation::trace_dispatch(std::uint64_t executed_in_run) {
  obs::TraceEvent e;
  e.time = now_;
  e.cat = obs::TraceCat::kSim;
  e.type = obs::ev::kDispatchEvent;
  e.a0 = static_cast<std::int64_t>(events_executed_ + executed_in_run);
  e.a1 = static_cast<std::int64_t>(queue_.size());
  trace_->emit(e);
}

std::uint64_t Simulation::run_until(SimTime deadline) {
  const std::uint64_t executed = queue_.drain(
      deadline, UINT64_MAX, [this](SimTime when, std::uint64_t ran) {
        assert(when >= now_ && "event scheduled in the past");
        now_ = when;
#if ATCSIM_TRACE_ENABLED
        if (trace_ != nullptr) trace_dispatch(ran);
#else
        (void)ran;
#endif
      });
  events_executed_ += executed;
  if (now_ < deadline) now_ = deadline;
  return executed;
}

}  // namespace atcsim::sim
