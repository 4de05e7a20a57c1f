// Small-buffer-optimized `void()` callable — the zero-allocation currency of
// every hot path (event queue, split-driver packet descriptors, event-channel
// mailboxes).
//
// Hoisted out of event_queue.h so the network and virt layers can store
// continuations without paying std::function's heap fallback: callables must
// fit the fixed inline buffer and be nothrow-move-constructible, both
// enforced at compile time, so growing a capture past the budget is a build
// error rather than a silent allocation.
//
// A callable may also name the first record it will touch, through a
// `prefetch() const` member; the event queue's drain loop calls it on the
// head event's callback while the heap pops (DESIGN.md §7 "The drain
// loop").  `prefetch_lines` is the usual body of such a member.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace atcsim::sim {

/// Starts fetching every cache line of `*p`.  A hint only: it never faults
/// and never waits, so it is safe on any address.
template <typename T>
inline void prefetch_lines(const T* p) {
  const auto* bytes = reinterpret_cast<const char*>(p);
  for (std::size_t at = 0; at < sizeof(T); at += 64) {
    __builtin_prefetch(bytes + at);
  }
  __builtin_prefetch(bytes + sizeof(T) - 1);
}

/// Small-buffer-optimized `void()` callable.  Move-only; never allocates.
/// Callables must fit kCapacity bytes and be nothrow-move-constructible —
/// both are enforced at compile time, so growing a capture past the budget
/// is a build error, not a silent heap fallback.
class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = 24;

  InlineCallback() = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineCallback(F&& f) {  // NOLINT: implicit by design (lambda -> Callback)
    static_assert(sizeof(D) <= kCapacity,
                  "callback exceeds InlineCallback::kCapacity — shrink the "
                  "capture (capture a context pointer instead of values)");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "callback over-aligned for inline storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callback must be nothrow-move-constructible");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    ops_ = &OpsFor<D>::kOps;
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking empty InlineCallback");
    ops_->invoke(buf_);
  }

  /// Runs the callable's `prefetch() const` member, when its type has one;
  /// otherwise does nothing.
  void prefetch() const {
    assert(ops_ != nullptr && "prefetching for an empty InlineCallback");
    if (ops_->prefetch != nullptr) ops_->prefetch(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
    /// Null unless the callable has a `prefetch() const` member.
    void (*prefetch)(const void*);
  };

  template <typename D>
  struct OpsFor {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
    static constexpr auto prefetch_op() -> void (*)(const void*) {
      if constexpr (requires(const D& d) { d.prefetch(); }) {
        return [](const void* p) { static_cast<const D*>(p)->prefetch(); };
      } else {
        return nullptr;
      }
    }
    static constexpr Ops kOps{&invoke, &relocate, &destroy, prefetch_op()};
  };

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace atcsim::sim
