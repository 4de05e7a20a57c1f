#include "obs/invariants.h"

#include <cmath>

#include "obs/export.h"

namespace atcsim::obs {

namespace {

/// Grows an id-indexed vector on demand; ids are dense platform indices.
template <class T>
T& slot(std::vector<T>& v, std::int32_t id, T init) {
  const auto idx = static_cast<std::size_t>(id);
  if (v.size() <= idx) v.resize(idx + 1, init);
  return v[idx];
}

}  // namespace

InvariantChecker::InvariantChecker(TraceSink& sink, InvariantLimits limits)
    : limits_(limits) {
  sink.add_observer([this](const TraceEvent& e) { on_event(e); });
}

std::string InvariantChecker::context_dump() const {
  std::string out;
  for (const TraceEvent& e : recent_) {
    out += "  ";
    out += format_event(e);
    out += '\n';
  }
  return out;
}

void InvariantChecker::violate(const TraceEvent& e, const char* invariant,
                               const std::string& detail) {
  violations_.push_back(Violation{invariant, detail, e});
  if (abort_on_violation_) {
    throw InvariantViolation(std::string("invariant '") + invariant +
                             "' violated at t=" + std::to_string(e.time) +
                             ": " + detail + "\noffending event:\n  " +
                             format_event(e) + "\nrecent events:\n" +
                             context_dump());
  }
}

void InvariantChecker::on_event(const TraceEvent& e) {
  ++events_checked_;
  recent_.push_back(e);
  if (recent_.size() > kContextEvents) recent_.pop_front();

  if (e.cat == TraceCat::kPdes) {
    // Synchronizer events are stamped with the round's global earliest
    // event time m, which lawfully precedes model events a shard already
    // executed past m (per-shard horizons overshoot the global minimum).
    // m itself is strictly increasing across rounds, so the kPdes stream
    // gets its own monotonic clock instead of the model-event clock.
    if (e.time < pdes_last_time_) {
      violate(e, "time-monotonic",
              "round timestamp " + std::to_string(e.time) + " precedes " +
                  std::to_string(pdes_last_time_));
    }
    pdes_last_time_ = e.time;
    return;
  }
  if (e.time < last_time_) {
    violate(e, "time-monotonic",
            "timestamp " + std::to_string(e.time) + " precedes " +
                std::to_string(last_time_));
  }
  last_time_ = e.time;

  switch (e.cat) {
    case TraceCat::kVcpu:
      switch (e.type) {
        case ev::kDispatch: {
          if (e.vm >= 0 &&
              slot(vm_departed_, e.vm, std::uint8_t{0}) != 0) {
            violate(e, "migration-residency",
                    "vcpu " + std::to_string(e.vcpu) +
                        " dispatched for vm " + std::to_string(e.vm) +
                        " which migrated away");
          }
          if (e.pcpu >= 0) {
            auto& occupant = slot(running_on_, e.pcpu, std::int32_t{-1});
            if (occupant >= 0) {
              violate(e, "pcpu-occupancy",
                      "vcpu " + std::to_string(e.vcpu) +
                          " dispatched on pcpu " + std::to_string(e.pcpu) +
                          " already running vcpu " + std::to_string(occupant));
            }
            occupant = e.vcpu;
          }
          if (e.vcpu >= 0) {
            auto& where = slot(placed_on_, e.vcpu, std::int32_t{-1});
            if (where >= 0 && where != e.pcpu) {
              violate(e, "vcpu-placement",
                      "vcpu " + std::to_string(e.vcpu) + " already on pcpu " +
                          std::to_string(where));
            }
            where = e.pcpu;
          }
          // slice-floor: the engine grants max(the VM's time slice,
          // min_time_slice) and then jitters by +/- slice_jitter, so the
          // hard floor is the minimum slice shrunk by one full jitter
          // fraction.
          const auto floor = static_cast<sim::SimTime>(
              static_cast<double>(limits_.min_slice) *
              (1.0 - limits_.slice_jitter)) - 1;
          if (e.a0 < floor) {
            violate(e, "slice-floor",
                    "granted slice " + std::to_string(e.a0) +
                        "ns below minimum " + std::to_string(floor) + "ns");
          }
          break;
        }
        case ev::kLeave: {
          if (e.pcpu >= 0) {
            auto& occupant = slot(running_on_, e.pcpu, std::int32_t{-1});
            if (occupant != e.vcpu) {
              violate(e, "pcpu-occupancy",
                      "vcpu " + std::to_string(e.vcpu) + " left pcpu " +
                          std::to_string(e.pcpu) + " occupied by vcpu " +
                          std::to_string(occupant));
            }
            occupant = -1;
          }
          if (e.vcpu >= 0) slot(placed_on_, e.vcpu, std::int32_t{-1}) = -1;
          break;
        }
        default:
          break;
      }
      break;

    case TraceCat::kSync:
      switch (e.type) {
        case ev::kSpinStart: {
          auto& in_spin = slot(spinning_, e.vcpu, std::uint8_t{0});
          if (in_spin != 0) {
            violate(e, "spin-nesting",
                    "vcpu " + std::to_string(e.vcpu) +
                        " started a spin episode while one is open");
          }
          in_spin = 1;
          break;
        }
        case ev::kSpinEnd: {
          auto& in_spin = slot(spinning_, e.vcpu, std::uint8_t{0});
          if (in_spin == 0) {
            violate(e, "spin-nesting",
                    "vcpu " + std::to_string(e.vcpu) +
                        " ended a spin episode it never started");
          }
          in_spin = 0;
          if (e.a0 < 0) {
            violate(e, "spin-nesting",
                    "negative spin wall latency " + std::to_string(e.a0));
          }
          break;
        }
        default:
          break;
      }
      break;

    case TraceCat::kSched:
      switch (e.type) {
        case ev::kCredit: {
          // Balances are reported in millicredits; allow 1 mcr of rounding.
          const auto clip_mcr =
              static_cast<std::int64_t>(std::llround(limits_.credit_clip * 1e3));
          if (e.a0 > clip_mcr + 1 || e.a0 < -clip_mcr - 1) {
            violate(e, "credit-bounds",
                    "credit balance " + std::to_string(e.a0) +
                        "mcr outside +/-" + std::to_string(clip_mcr) + "mcr");
          }
          break;
        }
        case ev::kRefill: {
          // a0 = credits distributed this period, a1 = node pool (both mcr).
          if (e.a0 > e.a1 + 1) {
            violate(e, "credit-conserved",
                    "refill distributed " + std::to_string(e.a0) +
                        "mcr exceeding the period pool of " +
                        std::to_string(e.a1) + "mcr");
          }
          break;
        }
        default:
          break;
      }
      break;

    case TraceCat::kMigration:
      switch (e.type) {
        case ev::kMigDepart: {
          if (e.vm >= 0) slot(vm_departed_, e.vm, std::uint8_t{0}) = 1;
          pending_migrations_.push_back(PendingMigration{e.time, e.a1});
          break;
        }
        case ev::kMigArrive: {
          // a0 = departure timestamp, a1 = adopted credits (mcr).  Match
          // against a recorded departure; none means the departure happened
          // on another shard (its checker recorded it) — skip.
          bool time_matched = false;
          for (std::size_t i = 0; i < pending_migrations_.size(); ++i) {
            if (pending_migrations_[i].depart != e.a0) continue;
            time_matched = true;
            if (pending_migrations_[i].credits_mcr == e.a1) {
              pending_migrations_.erase(pending_migrations_.begin() +
                                        static_cast<std::ptrdiff_t>(i));
              time_matched = false;  // matched and consumed
              break;
            }
          }
          if (time_matched) {
            violate(e, "migration-credits",
                    "vm " + std::to_string(e.vm) + " arrived with " +
                        std::to_string(e.a1) +
                        "mcr, departure at t=" + std::to_string(e.a0) +
                        " recorded a different balance");
          }
          break;
        }
        default:
          break;
      }
      break;

    default:
      break;
  }
}

}  // namespace atcsim::obs
