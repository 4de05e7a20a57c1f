// Per-scheduling-period monitoring.
//
// The paper's monitor samples each VM's average spinlock latency once per
// VMM scheduling period (30 ms).  PeriodMonitor is the single owner of the
// per-period accumulators on every Vm: each period it snapshots them,
// resets them, and notifies subscribers (the ATC controller, the CS gang
// trigger, the DSS rate estimator, the cluster rebalancer, experiment
// recorders).  A single resetter keeps multiple consumers consistent.
//
// Lifetime: subscribe() hands back a movable RAII Subscription; dropping it
// (or calling reset) detaches the callback, so a consumer that dies before
// the monitor — a scheduler replaced by Node::set_scheduler, a controller
// torn down by a repeated install_approach — never leaves a dangling
// std::function behind.  Handles reach the subscriber list through a
// shared_ptr, so they may also safely outlive the monitor.  Detaching is
// amortized O(log n): the entry is found by id and tombstoned, and
// tombstones are compacted away once they outnumber the live entries, so
// tearing down a 16384-node scenario's subscriptions is not quadratic.
// The sampling timer itself is a reusable cancellable Simulation timer:
// stop() (and the destructor) disarm it, so a monitor can be destroyed
// before its simulation and a drained shard's next_event_time is not
// pinned forever by an eternal re-arm.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "virt/platform.h"

namespace atcsim::sync {

class PeriodMonitor {
 public:
  using Callback = std::function<void(std::uint64_t period_index)>;

 private:
  struct Entry {
    std::uint64_t id = 0;
    Callback cb;
    bool live = true;  ///< false: detached (cb released), awaiting compaction
  };
  /// Shared between the monitor and its subscription handles; a handle
  /// detaching after the monitor died finds it gone.
  struct SubscriberList {
    /// In subscription order, so ids ascend and detach can bisect.
    std::vector<Entry> entries;
    std::size_t live = 0;
    /// sample() is walking `entries` by index, so compaction waits for the
    /// walk to end.
    bool sweeping = false;

    void detach(std::uint64_t id);
    /// Drops the tombstones once they outnumber the live entries.
    void compact_if_sparse();
  };

 public:
  /// RAII handle for one subscription.  Movable; destroying (or reset()ing)
  /// it removes the callback from the monitor.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& o) noexcept
        : list_(std::move(o.list_)), id_(o.id_) {
      o.id_ = 0;
    }
    Subscription& operator=(Subscription&& o) noexcept {
      if (this != &o) {
        reset();
        list_ = std::move(o.list_);
        id_ = o.id_;
        o.id_ = 0;
      }
      return *this;
    }
    ~Subscription() { reset(); }

    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;

    /// Detaches the callback now (idempotent).
    void reset();
    bool active() const { return id_ != 0 && !list_.expired(); }

   private:
    friend class PeriodMonitor;
    Subscription(std::weak_ptr<SubscriberList> list, std::uint64_t id)
        : list_(std::move(list)), id_(id) {}
    std::weak_ptr<SubscriberList> list_;
    std::uint64_t id_ = 0;
  };

  explicit PeriodMonitor(virt::Platform& platform);
  ~PeriodMonitor();

  PeriodMonitor(const PeriodMonitor&) = delete;
  PeriodMonitor& operator=(const PeriodMonitor&) = delete;

  /// Registers a per-period callback and returns its detach handle.
  /// Subscribing after start() is allowed (the rebalancer installs late).
  [[nodiscard]] Subscription subscribe(Callback cb);

  /// Begins sampling every ModelParams::accounting_period.  Call once,
  /// before running the simulation.  VMs created later (migration arrivals)
  /// are picked up automatically.
  void start();

  /// Disarms the sampling timer; idempotent.  After stop() no further
  /// periods fire and a drained simulation's event queue can empty out.
  void stop();

  /// Snapshot of `vm`'s accumulators over the last completed period.
  /// Spin episodes still in flight at the sampling instant are included
  /// with their latency accrued so far, so a VM stuck in a long spin is
  /// never misread as idle (see DESIGN.md).
  const virt::Vm::PeriodStats& last(virt::VmId id) const {
    static const virt::Vm::PeriodStats kEmpty{};
    const std::size_t i = static_cast<std::size_t>(id.index());
    return i < last_.size() ? last_[i] : kEmpty;
  }

  /// Average spinlock latency of the VM over the last period (the paper's
  /// monitored quantity); zero when the VM did not spin at all.
  sim::SimTime avg_spin_latency(virt::VmId id) const;

  std::uint64_t periods_elapsed() const { return periods_; }
  std::size_t subscriber_count() const { return subscribers_->live; }

 private:
  void sample();

  virt::Platform* platform_;
  std::vector<virt::Vm::PeriodStats> last_;
  std::shared_ptr<SubscriberList> subscribers_;
  std::vector<virt::VmId> ring_scratch_;  // swapped with the platform ring
  std::vector<virt::VmId> prev_active_;   // sampled last period; may go idle
  std::uint64_t next_sub_id_ = 1;
  std::uint64_t periods_ = 0;
  bool started_ = false;
  sim::TimerId timer_{};
  bool timer_made_ = false;
};

}  // namespace atcsim::sync
