// Declarative workload descriptors: workloads as data, not C++.
//
// A Descriptor is a compact, line-oriented text format describing one guest
// application as a cycle of composable phases — compute grain, think time,
// I/O burst, message traffic, intra-VM sync and the global barrier — in the
// spirit of gem_wsim's simulator-driving workload files.  The same grammar
// covers both application shapes the simulator models:
//
//   * parallel (BSP) descriptors end the cycle with exactly one `barrier`
//     phase and compile onto the BspApp engine (one rank per VCPU, spin
//     barriers, coordinator messages through the split-driver network);
//   * loop descriptors have no barrier and compile onto LoopWorkload, a
//     single-VCPU interpreter (CPU-bound / disk-bound / think-time guests).
//
// Grammar (one directive per line; '#' starts a comment; ';' is accepted as
// a line separator so descriptors can be passed inline on a command line):
//
//   workload <name>               required; [A-Za-z0-9._-]+, at most 64 chars
//   cache_sens <x>                optional; (0, 64], default 1.0
//   rate_units <x>                optional; [0, 1e9], default 0 — units
//                                 credited per compute-second (loop mode)
//   phase compute <dur> [jitter=<f>]   on-CPU burn; dur in (0, 60s]
//   phase think <dur> [jitter=<f>]     blocked sleep (halted, BOOST wake)
//   phase io <size>                    blkback disk round trip, [1, 256MiB]
//   phase send <size>                  fire-and-forget message to the next
//                                      VM of the cluster (parallel only)
//   phase local_barrier                intra-VM shared-memory spin barrier
//   phase barrier [<size>]             global cross-VM barrier; <size> is
//                                      the per-VM exchange volume
//
// Durations are integers with an optional ns/us/ms/s suffix (default ns);
// sizes are integers with an optional B/KiB/MiB suffix (default B).
// parse() validates everything and throws DescriptorError with a one-line
// reason; print() emits the canonical form, and parse(print(d)) == d.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/time.h"

namespace atcsim::workload {

/// The classic BSP shape the NPB profiles are written in: sync_rounds equal
/// compute segments, separated by local barriers and closed by the global
/// barrier.  Descriptor::from_bsp lowers it to the phase program BspApp
/// runs.
struct BspConfig {
  std::string name = "bsp";
  /// Mean per-rank compute per superstep (grain of coupling).
  sim::SimTime compute_per_superstep = 2 * sim::kMillisecond;
  double compute_jitter = 0.15;
  /// Barrier/exchange message volume per VM per superstep direction.
  std::uint64_t bytes_per_msg = 64 * 1024;
  /// Compute-then-synchronize segments per superstep.  The first
  /// (sync_rounds - 1) syncs are intra-VM shared-memory barriers (the LHP
  /// spin the co-scheduling literature targets); the last is the global
  /// cross-VM barrier.  Must be in [1, 32]; Descriptor::from_bsp throws
  /// DescriptorError otherwise.
  int sync_rounds = 3;
  double cache_sensitivity = 1.0;
};

class DescriptorError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

enum class PhaseKind {
  kCompute,       ///< burn CPU for `duration` (+/- jitter)
  kThink,         ///< sleep (blocked) for `duration` (+/- jitter)
  kIo,            ///< one blkback disk request of `bytes`, block until done
  kSend,          ///< fire-and-forget `bytes` to the cluster's next VM
  kLocalBarrier,  ///< intra-VM shared-memory spin barrier
  kBarrier,       ///< global cross-VM barrier, `bytes` exchange per VM
};

/// Returns the grammar keyword of a phase kind ("compute", "barrier", ...).
const char* phase_kind_name(PhaseKind kind);

struct Phase {
  PhaseKind kind = PhaseKind::kCompute;
  sim::SimTime duration = 0;  ///< compute / think
  double jitter = 0.0;        ///< compute / think, [0, 0.9]
  std::uint64_t bytes = 0;    ///< io / send / barrier

  bool operator==(const Phase&) const = default;
};

/// Most phases one descriptor may hold (Descriptor::validate enforces it);
/// BspRank keeps its position in the program in one byte.
inline constexpr std::size_t kMaxPhases = 64;

struct Descriptor {
  std::string name;
  double cache_sensitivity = 1.0;
  /// Loop mode: work units credited per second of completed compute (0 = no
  /// rate metric).
  double rate_units = 0.0;
  std::vector<Phase> phases;

  bool operator==(const Descriptor&) const = default;

  /// True when the cycle ends in a global barrier (compiles onto BspApp);
  /// false for single-VCPU loop descriptors (compiles onto LoopWorkload).
  bool parallel() const;
  /// Number of local_barrier phases (the BSP "sync rounds" minus one).
  int local_barriers() const;
  /// The global barrier's per-VM exchange volume; 0 for loop descriptors.
  std::uint64_t barrier_bytes() const;

  /// Canonical text form; parse(print()) reproduces *this exactly.
  std::string print() const;

  /// Parses and validates; throws DescriptorError on any malformed or
  /// out-of-range input (see the grammar above for the accepted ranges).
  static Descriptor parse(const std::string& text);

  /// Validates an in-memory descriptor (the rules parse() enforces);
  /// returns the empty string when valid, else the one-line reason.
  std::string validate() const;

  /// Lowers a classic BspConfig to its descriptor form: sync_rounds
  /// segments of compute_per_superstep / sync_rounds each (integer
  /// division), separated by local barriers, closed by the global barrier.
  /// Throws DescriptorError when cfg.sync_rounds is outside [1, 32] or the
  /// lowered descriptor is invalid.
  static Descriptor from_bsp(const BspConfig& cfg);
};

}  // namespace atcsim::workload
