#include "simcore/arena.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>

#if defined(__SANITIZE_ADDRESS__)
#define ATCSIM_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ATCSIM_ARENA_ASAN 1
#endif
#endif

#if ATCSIM_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace atcsim::sim {

namespace {

/// Blocks start on at least a word boundary, which is also ASan's shadow
/// granule, so a block's first byte is never poisoned with its neighbour's.
constexpr std::size_t kMinAlign = alignof(void*);

#if ATCSIM_ARENA_ASAN
/// Poisoned bytes left after every block.
constexpr std::size_t kRedzone = 16;

void poison(std::uintptr_t p, std::size_t n) {
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<void*>(p), n);
}
void unpoison(std::uintptr_t p, std::size_t n) {
  ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<void*>(p), n);
}
#else
constexpr std::size_t kRedzone = 0;

void poison(std::uintptr_t /*p*/, std::size_t /*n*/) {}
void unpoison(std::uintptr_t /*p*/, std::size_t /*n*/) {}
#endif

std::uintptr_t align_up(std::uintptr_t p, std::size_t align) {
  return (p + align - 1) & ~static_cast<std::uintptr_t>(align - 1);
}

}  // namespace

bool advise_huge_pages(void* p, std::size_t bytes) {
#ifdef MADV_HUGEPAGE
  const auto at = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t begin = align_up(at, kHugePageBytes);
  const std::uintptr_t end =
      (at + bytes) & ~static_cast<std::uintptr_t>(kHugePageBytes - 1);
  if (end <= begin) return false;
  return madvise(reinterpret_cast<void*>(begin), end - begin,
                 MADV_HUGEPAGE) == 0;
#else
  (void)p;
  (void)bytes;
  return false;
#endif
}

Arena::~Arena() {
  for (ChunkHeader* c = last_; c != nullptr;) {
    ChunkHeader* prev = c->prev;
    void* raw = c->raw;
    unpoison(reinterpret_cast<std::uintptr_t>(c), c->bytes);
    ::operator delete(raw);
    c = prev;
  }
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0 &&
         "alignment must be a power of two");
  align = std::max(align, kMinAlign);
  std::uintptr_t p = align_up(cur_, align);
  if (last_ == nullptr || p > end_ || end_ - p < bytes + kRedzone) {
    add_chunk(bytes, align);
    p = align_up(cur_, align);
  }
  cur_ = p + bytes + kRedzone;
  bytes_used_ += bytes;
  unpoison(p, bytes);
  return reinterpret_cast<void*>(p);
}

void Arena::add_chunk(std::size_t bytes, std::size_t align) {
  const std::size_t need = sizeof(ChunkHeader) + align + bytes + kRedzone;
  std::size_t size = next_chunk_bytes_;
  while (size < need) size *= 2;
  next_chunk_bytes_ = size * 2;
  // A huge chunk is a whole number of 2 MiB pages on a 2 MiB boundary, so
  // the advice covers all of it; the slack that alignment needs is never
  // touched.
  const bool huge = size >= kHugePageBytes;
  if (huge) size = align_up(size, kHugePageBytes);
  const std::size_t request = size + (huge ? kHugePageBytes : 0);
  void* raw = ::operator new(request);
  const auto at = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t begin = huge ? align_up(at, kHugePageBytes) : at;
  if (huge && advise_huge_pages(reinterpret_cast<void*>(begin), size)) {
    ++advised_chunks_;
  }
  last_ = ::new (reinterpret_cast<void*>(begin))
      ChunkHeader{last_, raw, size};
  cur_ = begin + sizeof(ChunkHeader);
  end_ = begin + size;
  bytes_reserved_ += request;
  ++chunk_count_;
  poison(cur_, end_ - cur_);
}

}  // namespace atcsim::sim
