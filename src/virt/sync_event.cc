#include "virt/sync_event.h"

#include "obs/trace.h"
#include "virt/engine.h"
#include "virt/vcpu.h"
#include "virt/vm.h"

namespace atcsim::virt {

void SyncEvent::add_waiter(Vcpu& v) {
  v.eng().next_waiter = nullptr;
  if (tail_ != nullptr) {
    tail_->eng().next_waiter = &v;
  } else {
    head_ = &v;
  }
  tail_ = &v;
}

void SyncEvent::signal() {
  if (signalled_) return;
  assert(engine_ != nullptr && "signal() on an unbound SyncEvent");
  signalled_ = true;
  // Detach the whole list before waking anyone: a released spinner may
  // wait again at once, relinking its next_waiter into another event's list
  // (Engine::on_signalled reads each link before handling its VCPU).
  Vcpu* const first = head_;
  head_ = tail_ = nullptr;
#if ATCSIM_TRACE_ENABLED
  if (obs::TraceSink* sink = engine_->simulation().trace()) {
    obs::TraceEvent e;
    e.time = engine_->simulation().now();
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
  engine_->on_signalled(first);
}

}  // namespace atcsim::virt
