// Monotonic record store on 2 MiB pages (DESIGN.md §9 "Where records
// live").
//
// One Arena per Simulation, so one per shard.  It carves blocks out of
// chunks and frees nothing until it is destroyed: the records it holds
// (nodes, PCPU and VCPU arrays, VMs, schedulers, dom0 backends, event-queue
// slot chunks) live as long as the shard.  Chunk sizes double from a small first chunk, so a shard
// has one partly used tail chunk.  A chunk of 2 MiB or more starts on a
// 2 MiB boundary and is advised MADV_HUGEPAGE before its first touch: a
// shard's records then sit on a few dozen huge pages instead of thousands
// of 4 KiB ones, which is what the TLB can cover.  Where the host's THP
// mode is `never` the advice does nothing.
//
// Every chunk comes from plain ::operator new, over-allocated so it can be
// aligned, so a process-wide operator-new hook still sees each one.  The
// arena does not run destructors; owners of non-trivial records destroy
// them (std::destroy_at) before the arena goes.  Single owner: only the
// thread that owns the shard touches its arena.
//
// Under AddressSanitizer each chunk's unused tail and a redzone after every
// block stay poisoned, so an overrun from one block into the next is still
// reported.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace atcsim::sim {

/// Bytes in one transparent huge page (x86-64 and arm64, 4 KiB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Advises the kernel to back the whole 2 MiB pages inside [p, p + bytes)
/// with huge pages (madvise MADV_HUGEPAGE).  The advice takes effect when a
/// page is first touched, so call it before the range is written.  Returns
/// true when the range held at least one whole huge page and the kernel
/// accepted the advice.
bool advise_huge_pages(void* p, std::size_t bytes);

/// std::allocator for containers sized once (BspApp's barrier events,
/// arrival counters and ranks), whose elements are built after the
/// allocation.  A block of 2 MiB or more starts on a 2 MiB boundary, so all
/// of it but the last partial page is advised for huge pages before its
/// first touch.  Its first page of slack holds what ::operator new returned.
template <class T>
struct HugePageAllocator {
  using value_type = T;

  HugePageAllocator() = default;
  template <class U>
  HugePageAllocator(const HugePageAllocator<U>& /*other*/) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) return static_cast<T*>(::operator new(bytes));
    void* raw = ::operator new(bytes + kHugePageBytes + sizeof(void*));
    const std::uintptr_t at =
        (reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*) +
         kHugePageBytes - 1) &
        ~static_cast<std::uintptr_t>(kHugePageBytes - 1);
    reinterpret_cast<void**>(at)[-1] = raw;
    advise_huge_pages(reinterpret_cast<void*>(at), bytes);
    return reinterpret_cast<T*>(at);
  }
  void deallocate(T* p, std::size_t n) {
    if (n * sizeof(T) < kHugePageBytes) {
      ::operator delete(p);
    } else {
      ::operator delete(reinterpret_cast<void**>(p)[-1]);
    }
  }

  template <class U>
  bool operator==(const HugePageAllocator<U>& /*other*/) const {
    return true;
  }
};

class Arena {
 public:
  /// The first chunk; each later one is twice the previous (or larger,
  /// when one block needs more).
  static constexpr std::size_t kFirstChunkBytes = std::size_t{64} << 10;

  Arena() = default;
  /// Returns every chunk to ::operator delete.
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// `bytes` of uninitialised storage aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align);

  /// Storage for `n` objects of type T, not yet constructed.
  template <class T>
  T* allocate_array(std::size_t n) {
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  /// Builds one T in the arena.  Its destructor is the caller's to run.
  template <class T, class... Args>
  T* create(Args&&... args) {
    return ::new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Bytes handed out in blocks, as requested (no padding or redzones).
  std::size_t bytes_used() const { return bytes_used_; }
  /// Bytes requested from ::operator new for chunks, alignment slack
  /// included.
  std::size_t bytes_reserved() const { return bytes_reserved_; }
  std::size_t chunk_count() const { return chunk_count_; }
  /// Chunks the kernel accepted MADV_HUGEPAGE advice for.
  std::size_t advised_chunks() const { return advised_chunks_; }

  /// Calls f(begin, bytes) for every chunk, newest first; `begin` is the
  /// chunk's aligned start.
  template <class F>
  void for_each_chunk(F&& f) const {
    for (const ChunkHeader* c = last_; c != nullptr; c = c->prev) {
      f(static_cast<const void*>(c), c->bytes);
    }
  }

 private:
  /// Sits at the start of each chunk; the chunks form a list from the
  /// newest back.
  struct ChunkHeader {
    ChunkHeader* prev;
    void* raw;          ///< what ::operator new returned
    std::size_t bytes;  ///< from the header to the chunk's end
  };

  /// Starts a chunk with room for a block of `bytes` aligned to `align`.
  void add_chunk(std::size_t bytes, std::size_t align);

  ChunkHeader* last_ = nullptr;
  std::uintptr_t cur_ = 0;  ///< next free byte of the newest chunk
  std::uintptr_t end_ = 0;  ///< end of the newest chunk
  std::size_t next_chunk_bytes_ = kFirstChunkBytes;
  std::size_t bytes_used_ = 0;
  std::size_t bytes_reserved_ = 0;
  std::size_t chunk_count_ = 0;
  std::size_t advised_chunks_ = 0;
};

}  // namespace atcsim::sim
