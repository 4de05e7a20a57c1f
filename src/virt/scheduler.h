// VMM scheduler interface.
//
// One scheduler instance per node, as in Xen.  The engine drives state
// transitions and asks the scheduler which VCPU runs next; the VM's own
// time slice (Vm::time_slice) says for how long.  Schedulers own their run
// queues, credits, ticks and gang dispatch.
#pragma once

#include "simcore/simulation.h"
#include "simcore/time.h"
#include "virt/params.h"

namespace atcsim::virt {

class Engine;
class Node;
class Pcpu;
class Vcpu;
class Vm;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Called once before Engine::start(); the scheduler may schedule its own
  /// periodic events (credit accounting, adaptive controllers).
  virtual void attach(Node& node, Engine& engine) = 0;

  /// A VCPU with a program becomes runnable at simulation start.
  virtual void vcpu_started(Vcpu& v) = 0;

  /// Blocked -> runnable (event-channel IRQ / SyncEvent signal).
  virtual void on_wake(Vcpu& v) = 0;

  /// Running -> runnable (slice expiry or preemption): requeue.
  virtual void on_deschedule(Vcpu& v) = 0;

  /// Selects (and removes from its queue) the next VCPU for `p`; may steal
  /// from sibling queues.  Returns nullptr when nothing is runnable.
  virtual Vcpu* pick_next(Pcpu& p) = 0;

  /// Charges `run` of consumed CPU time (called whenever a VCPU leaves a
  /// PCPU; exact accounting instead of Xen's sampling ticks).
  virtual void charge(Vcpu& v, sim::SimTime run) = 0;

  /// Notification after a dispatch completed (used by gang scheduling).
  virtual void on_dispatched(Vcpu& /*v*/, Pcpu& /*p*/) {}

  /// Preemption target for a freshly woken VCPU when
  /// ModelParams::wake_preemption is enabled; nullptr = no preemption.
  virtual Pcpu* wake_preemption_target(Vcpu& /*v*/) { return nullptr; }

  // --- live migration ----------------------------------------------------

  /// `vm` is about to leave this node.  The engine has already forced its
  /// VCPUs off-CPU (they sit requeued as runnable or blocked); the
  /// scheduler must remove every one of them from its run queues.  On the
  /// destination the engine clears their placement and re-starts the
  /// runnable ones through vcpu_started.
  virtual void vm_departing(Vm& /*vm*/) {}
};

}  // namespace atcsim::virt
