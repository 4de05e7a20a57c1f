// The guest work-program API.
//
// Every VCPU executes a Workload: a pull-based state machine that the engine
// asks for the next Action whenever the previous one completes.  Actions are
// deliberately minimal — compute, spin-wait, block-wait, exit — because those
// four are exactly what distinguishes parallel synchronization behaviour
// under VMM scheduling.  Asynchronous side effects (posting a network packet,
// issuing a disk request) are performed by the workload inside next(), which
// runs at the simulated instant the VCPU reaches that point of its program.
#pragma once

#include <cstdint>

#include "simcore/time.h"
#include "virt/ids.h"

namespace atcsim::virt {

class Vcpu;
class SyncEvent;

/// One step of a guest program.
struct Action {
  enum class Kind : std::uint8_t {
    kCompute,    ///< burn `duration` of on-CPU time
    kSpinWait,   ///< busy-wait (stays runnable, burns CPU) until `event`
    kBlockWait,  ///< halt the VCPU until `event` (woken with BOOST)
    kExit,       ///< the program is finished; the VCPU never runs again
  };

  Kind kind = Kind::kExit;
  sim::SimTime duration = 0;    // kCompute only
  SyncEvent* event = nullptr;   // kSpinWait / kBlockWait only

  static Action compute(sim::SimTime d) {
    return Action{Kind::kCompute, d, nullptr};
  }
  static Action spin_wait(SyncEvent& ev) {
    return Action{Kind::kSpinWait, 0, &ev};
  }
  static Action block_wait(SyncEvent& ev) {
    return Action{Kind::kBlockWait, 0, &ev};
  }
  static Action exit() { return Action{}; }
};

/// A guest program bound to one VCPU.  Implementations live in
/// src/workload/ (application models) and src/net/ (dom0 backends).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Returns the next action.  Called with the VCPU on a PCPU at the
  /// simulated time the previous action completed.  May perform side
  /// effects (sends, bookkeeping) that happen "now".
  virtual Action next(Vcpu& self) = 0;

  /// Multiplier on ModelParams::cache_refill_penalty: how badly this
  /// program suffers when its LLC working set is evicted.
  virtual double cache_sensitivity() const { return 1.0; }

  /// Whether this program's VM may be live-migrated *right now*.  The
  /// program's handles name its VM, never a platform, so nothing needs
  /// rebinding when the VM moves; a program opting in must still return
  /// false while an I/O chain it started is in flight on the source node
  /// (the device state of that chain cannot follow the VM).
  ///
  /// Contract: a guest that packets address never migrates.  A packet
  /// routes by its destination VM's own node, read when it is sent, and no
  /// dom0 forwards it after a move; VirtualNetwork's delivery asserts that
  /// the destination is still on the node the packet was addressed to.
  /// So only a program whose VM no guest sends to and no client injects
  /// into may return true.  The default keeps every workload pinned.
  virtual bool migratable() const { return false; }
};

}  // namespace atcsim::virt
