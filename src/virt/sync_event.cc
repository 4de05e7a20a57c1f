#include "virt/sync_event.h"

#include "obs/trace.h"
#include "virt/engine.h"
#include "virt/node.h"
#include "virt/platform.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace atcsim::virt {

void SyncEvent::add_waiter(Vcpu& v) {
  assert(!signalled() && "add_waiter() on a signalled SyncEvent");
  v.eng().next_waiter = nullptr;
  if (tail_ != nullptr) {
    tail_->eng().next_waiter = &v;
  } else {
    head_ = &v;
  }
  tail_ = &v;
}

void SyncEvent::signal() {
  if (signalled()) return;
  assert(vm_ != nullptr && "signal() on an unbound SyncEvent");
  Engine& engine = vm_->node().platform().engine();
  // Detach the whole list before waking anyone: a released spinner may
  // wait again at once, relinking its next_waiter into another event's list
  // (Engine::on_signalled reads each link before handling its VCPU).
  Vcpu* const first = head_;
  head_ = nullptr;
  tail_ = signalled_mark();
#if ATCSIM_TRACE_ENABLED
  if (obs::TraceSink* sink = engine.simulation().trace()) {
    obs::TraceEvent e;
    e.time = engine.simulation().now();
    e.cat = obs::TraceCat::kSync;
    e.type = obs::ev::kSignal;
    if (first != nullptr) {
      e.vm = first->vm().id().value;
      e.vcpu = first->id().value;
    }
    for (const Vcpu* w = first; w != nullptr; w = w->eng().next_waiter) {
      ++e.a0;  // waiters woken
    }
    sink->emit(e);
  }
#endif
  engine.on_signalled(first);
}

}  // namespace atcsim::virt
