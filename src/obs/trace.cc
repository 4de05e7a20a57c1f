#include "obs/trace.h"

namespace atcsim::obs {

const char* cat_name(TraceCat c) {
  switch (c) {
    case TraceCat::kSim: return "sim";
    case TraceCat::kSched: return "sched";
    case TraceCat::kVcpu: return "vcpu";
    case TraceCat::kSync: return "sync";
    case TraceCat::kAtc: return "atc";
    case TraceCat::kNet: return "net";
    case TraceCat::kPdes: return "pdes";
    case TraceCat::kMigration: return "mig";
  }
  return "?";
}

const char* type_name(TraceCat c, std::uint8_t type) {
  switch (c) {
    case TraceCat::kSim:
      switch (type) {
        case ev::kDispatchEvent: return "dispatch";
      }
      break;
    case TraceCat::kSched:
      switch (type) {
        case ev::kEnqueue: return "enqueue";
        case ev::kPick: return "pick";
        case ev::kSteal: return "steal";
        case ev::kRefill: return "refill";
        case ev::kCredit: return "credit";
        case ev::kTickPreempt: return "tick_preempt";
      }
      break;
    case TraceCat::kVcpu:
      switch (type) {
        case ev::kStart: return "start";
        case ev::kDispatch: return "dispatch";
        case ev::kLeave: return "leave";
        case ev::kWake: return "wake";
      }
      break;
    case TraceCat::kSync:
      switch (type) {
        case ev::kSpinStart: return "spin_start";
        case ev::kSpinEnd: return "spin_end";
        case ev::kSignal: return "signal";
      }
      break;
    case TraceCat::kAtc:
      switch (type) {
        case ev::kCandidate: return "candidate";
        case ev::kApply: return "apply";
        case ev::kClamp: return "clamp";
      }
      break;
    case TraceCat::kNet:
      switch (type) {
        case ev::kGuestTx: return "guest_tx";
        case ev::kWire: return "wire";
        case ev::kGuestRx: return "guest_rx";
        case ev::kInject: return "inject";
        case ev::kDiskSubmit: return "disk_submit";
        case ev::kDiskDone: return "disk_done";
        case ev::kRingGrow: return "ring_grow";
      }
      break;
    case TraceCat::kPdes:
      switch (type) {
        case ev::kRoundBegin: return "round_begin";
        case ev::kRoundHorizon: return "round_horizon";
        case ev::kRoundElide: return "round_elide";
      }
      break;
    case TraceCat::kMigration:
      switch (type) {
        case ev::kMigStart: return "start";
        case ev::kMigDepart: return "depart";
        case ev::kMigArrive: return "arrive";
        case ev::kMigForward: return "forward";
      }
      break;
  }
  return "?";
}

TraceSink::TraceSink(TraceConfig cfg) : cfg_(cfg) {
  if (cfg_.capacity > 0) ring_.reserve(cfg_.capacity);
}

void TraceSink::emit(const TraceEvent& e) {
  ++emitted_;
  for (const auto& fn : observers_) fn(e);
  if (cfg_.capacity == 0) {
    ring_.push_back(e);
    return;
  }
  if (ring_.size() < cfg_.capacity) {
    ring_.push_back(e);
    next_ = ring_.size() % cfg_.capacity;
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[next_] = e;
  next_ = (next_ + 1) % cfg_.capacity;
  wrapped_ = true;
  ++dropped_;
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  append_to(out);
  return out;
}

void TraceSink::append_to(std::vector<TraceEvent>& out) const {
  // Unwrapped, next_ is 0 or the fill level; either way the oldest event
  // sits at ring_[0].
  const auto oldest =
      ring_.begin() + static_cast<std::ptrdiff_t>(wrapped_ ? next_ : 0);
  out.insert(out.end(), oldest, ring_.end());
  out.insert(out.end(), ring_.begin(), oldest);
}

}  // namespace atcsim::obs
