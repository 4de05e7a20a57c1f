// Structured simulation tracing.
//
// A TraceSink collects fixed-size TraceEvents from instrumentation points in
// the simulation kernel (event dispatch), the credit scheduler (enqueue /
// pick / steal / refill / charge / tick), the execution engine (VCPU state
// transitions, spin episodes), the ATC controller (decisions, clamps) and
// the split-driver network path (per-hop).  Events land in a ring buffer
// (oldest dropped first) and are simultaneously fanned out to registered
// observers — the runtime invariant checker (invariants.h) rides the
// observer hook so it sees every event even when the ring wraps.
//
// Determinism: a TraceEvent carries only simulated time and integer fields,
// so two runs of the same seeded scenario produce byte-identical compact
// exports (export.h) — the golden-trace regression oracle in tests/golden/.
//
// Overhead: emission is a null-pointer check when tracing is off, and the
// whole layer compiles out when ATCSIM_TRACE_ENABLED is defined to 0
// (CMake option ATCSIM_ENABLE_TRACE=OFF).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "simcore/time.h"

namespace atcsim::obs {

/// Event categories.
enum class TraceCat : std::uint8_t {
  kSim = 0,    ///< simulation kernel (event dispatch)
  kSched = 1,  ///< credit-scheduler run-queue / credit operations
  kVcpu = 2,   ///< engine-driven VCPU state transitions
  kSync = 3,   ///< SyncEvent spin episodes and signals
  kAtc = 4,    ///< adaptive time-slice controller decisions
  kNet = 5,    ///< split-driver I/O hops
  kPdes = 6,   ///< sharded-run round synchronizer (ShardGroup)
  kMigration = 7,  ///< cluster control plane: live migration lifecycle
};
inline constexpr int kTraceCatCount = 8;

// Per-category event type codes.  Codes are part of the on-disk compact
// format: only append, never renumber (see DESIGN.md "Trace schema").
namespace ev {
// TraceCat::kSim
inline constexpr std::uint8_t kDispatchEvent = 0;  ///< a0=seq, a1=pending
// TraceCat::kSched
inline constexpr std::uint8_t kEnqueue = 0;   ///< a0=prio, a1=queue index
inline constexpr std::uint8_t kPick = 1;      ///< a0=prio, a1=queue index
inline constexpr std::uint8_t kSteal = 2;     ///< a0=victim queue, a1=thief queue
inline constexpr std::uint8_t kRefill = 3;    ///< a0=distributed mcr, a1=pool mcr
inline constexpr std::uint8_t kCredit = 4;    ///< a0=balance mcr, a1=run ns (charge)
inline constexpr std::uint8_t kTickPreempt = 5;  ///< a0=queue index
// TraceCat::kVcpu
inline constexpr std::uint8_t kStart = 0;     ///< VCPU becomes schedulable
inline constexpr std::uint8_t kDispatch = 1;  ///< a0=granted slice ns, a1=debt ns
inline constexpr std::uint8_t kLeave = 2;     ///< a0=reason, a1=stint ns
inline constexpr std::uint8_t kWake = 3;      ///< blocked -> runnable
// TraceCat::kSync
inline constexpr std::uint8_t kSpinStart = 0;
inline constexpr std::uint8_t kSpinEnd = 1;   ///< a0=wall ns of the episode
inline constexpr std::uint8_t kSignal = 2;    ///< a0=waiters woken
// TraceCat::kAtc
inline constexpr std::uint8_t kCandidate = 0; ///< a0=candidate ns, a1=avg spin ns
inline constexpr std::uint8_t kApply = 1;     ///< a0=applied slice ns, a1=parallel?
inline constexpr std::uint8_t kClamp = 2;     ///< a0=clamped slice ns, a1=bound ns
// TraceCat::kNet
inline constexpr std::uint8_t kGuestTx = 0;   ///< a0=bytes, a1=dst vm (-1=ext)
inline constexpr std::uint8_t kWire = 1;      ///< a0=bytes, a1=dst node index
inline constexpr std::uint8_t kGuestRx = 2;   ///< a0=bytes (handed to dst dom0)
inline constexpr std::uint8_t kInject = 3;    ///< a0=bytes (external -> guest)
inline constexpr std::uint8_t kDiskSubmit = 4;  ///< a0=bytes
inline constexpr std::uint8_t kDiskDone = 5;    ///< a0=bytes
inline constexpr std::uint8_t kRingGrow = 6;  ///< a0=new cap, a1=old cap (dom0 job ring)
// TraceCat::kPdes (emitted by the round coordinator into shard 0's sink;
// time = the round's global earliest event time m)
inline constexpr std::uint8_t kRoundBegin = 0;    ///< a0=round index, a1=shards
inline constexpr std::uint8_t kRoundHorizon = 1;  ///< a0=a1=the round's horizon
/// Retired: no longer emitted.  The code stays reserved (and named) so
/// trace types never renumber.
inline constexpr std::uint8_t kRoundElide = 2;
// TraceCat::kMigration (node/vm = the local ids on the emitting platform)
inline constexpr std::uint8_t kMigStart = 0;   ///< a0=dest global node, a1=ws bytes
inline constexpr std::uint8_t kMigDepart = 1;  ///< a0=dest global node, a1=credits (milli)
inline constexpr std::uint8_t kMigArrive = 2;  ///< a0=src depart ns, a1=credits (milli)
/// Retired like kRoundElide: no dom0 forwards a packet after its guest
/// moved (DESIGN.md §12).
inline constexpr std::uint8_t kMigForward = 3;
}  // namespace ev

/// VCPU leave-CPU reasons (kVcpu/kLeave a0); mirrors Engine::LeaveReason.
namespace reason {
inline constexpr std::int64_t kSliceEnd = 0;
inline constexpr std::int64_t kBlock = 1;
inline constexpr std::int64_t kExit = 2;
inline constexpr std::int64_t kPreempt = 3;
}  // namespace reason

/// One fixed-size trace record.  Entity fields are global platform ids
/// (virt::Id values); -1 = not applicable.
struct TraceEvent {
  sim::SimTime time = 0;
  TraceCat cat = TraceCat::kSim;
  std::uint8_t type = 0;
  std::int32_t node = -1;
  std::int32_t vm = -1;
  std::int32_t vcpu = -1;
  std::int32_t pcpu = -1;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

/// Stable lowercase names for export ("sched.enqueue", ...).
const char* cat_name(TraceCat c);
const char* type_name(TraceCat c, std::uint8_t type);

struct TraceConfig {
  /// Ring capacity in events; oldest events are dropped past it.  0 keeps
  /// everything (golden traces / short runs).
  std::size_t capacity = 1u << 20;
};

class TraceSink {
 public:
  using Observer = std::function<void(const TraceEvent&)>;

  explicit TraceSink(TraceConfig cfg = {});

  void emit(const TraceEvent& e);

  /// Invariant checkers and live consumers; called for every emitted
  /// event, before ring insertion.
  void add_observer(Observer fn) { observers_.push_back(std::move(fn)); }

  /// Buffered events, oldest first.
  std::vector<TraceEvent> snapshot() const;
  /// Appends the buffered events, oldest first, to `out`.
  void append_to(std::vector<TraceEvent>& out) const;

  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t size() const { return ring_.size(); }
  const TraceConfig& config() const { return cfg_; }

 private:
  TraceConfig cfg_;
  std::vector<TraceEvent> ring_;  // wrap-around when capacity > 0
  std::size_t next_ = 0;          // ring write position
  bool wrapped_ = false;
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Observer> observers_;
};

}  // namespace atcsim::obs

// Emission macro: compiles to nothing with ATCSIM_TRACE_ENABLED=0, costs one
// branch on a (usually null) pointer otherwise.  `sink` is a TraceSink*.
#ifndef ATCSIM_TRACE_ENABLED
#define ATCSIM_TRACE_ENABLED 1
#endif

#if ATCSIM_TRACE_ENABLED
#define ATCSIM_TRACE(sink, ...)                            \
  do {                                                     \
    ::atcsim::obs::TraceSink* atcsim_trace_sink_ = (sink); \
    if (atcsim_trace_sink_ != nullptr) {                   \
      atcsim_trace_sink_->emit(__VA_ARGS__);               \
    }                                                      \
  } while (0)
#else
#define ATCSIM_TRACE(sink, ...) \
  do {                          \
  } while (0)
#endif
