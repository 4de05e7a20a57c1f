// Replacement global operator new/delete that count heap allocations for
// the bench harness (report_common.h reads atcsim::bench::g_allocs).
//
// They live in their own translation unit so no caller can inline them:
// inlined into a bench's main(), GCC pairs the library's operator new call
// with this std::free and reports -Wmismatched-new-delete.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace atcsim::bench {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace atcsim::bench

void* operator new(std::size_t n) {
  atcsim::bench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
