// sim::Arena, the per-shard record store (DESIGN.md §9 "Where records
// live"): block alignment and disjointness, 2 MiB chunks on 2 MiB
// boundaries with huge-page advice, no allocation in a steady state, every
// chunk returned at destruction, and under AddressSanitizer an overrun from
// one VM's VCPU array into the next record still reported.  Part of the
// alloc_guard_test binary, whose operator-new hook counts the chunks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "alloc_guard.h"
#include "sched/credit.h"
#include "simcore/arena.h"
#include "simcore/simulation.h"
#include "virt/platform.h"

namespace atcsim::sim {
namespace {

std::uintptr_t address(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p);
}

TEST(ArenaTest, BlocksMeetTheirAlignmentAndNeverOverlap) {
  Arena arena;
  std::vector<std::pair<std::uintptr_t, std::size_t>> blocks;
  std::size_t requested = 0;
  for (int i = 0; i < 3000; ++i) {  // ~1 MiB: spans the first four chunks
    const std::size_t align = std::size_t{1} << (i % 7);  // 1 .. 64
    const std::size_t bytes = static_cast<std::size_t>((i * 37) % 700);
    const std::uintptr_t p = address(arena.allocate(bytes, align));
    EXPECT_EQ(p % align, 0u) << "block " << i;
    blocks.emplace_back(p, bytes);
    requested += bytes;
  }
  // One block larger than any chunk so far gets a chunk of its own.
  blocks.emplace_back(address(arena.allocate(3 << 20, 4096)), 3 << 20);
  requested += 3 << 20;
  EXPECT_EQ(blocks.back().first % 4096, 0u);

  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_GE(blocks[i].first, blocks[i - 1].first + blocks[i - 1].second)
        << "blocks " << i - 1 << " and " << i << " overlap";
  }
  EXPECT_EQ(arena.bytes_used(), requested);
  EXPECT_GT(arena.chunk_count(), 3u);
}

TEST(ArenaTest, HugeChunksStartOnHugePagesAndAreAdvised) {
  Arena arena;
  // 12 MiB in 256 KiB blocks: chunks double from 64 KiB past 2 MiB.
  for (int i = 0; i < 48; ++i) arena.allocate(256 << 10, 64);
  std::size_t huge = 0;
  arena.for_each_chunk([&](const void* begin, std::size_t bytes) {
    if (bytes < kHugePageBytes) return;
    ++huge;
    EXPECT_EQ(address(begin) % kHugePageBytes, 0u);
    EXPECT_EQ(bytes % kHugePageBytes, 0u);
  });
  EXPECT_GE(huge, 2u);
  if (!std::filesystem::exists("/sys/kernel/mm/transparent_hugepage")) {
    GTEST_SKIP() << "kernel without transparent huge pages: no advice";
  }
  EXPECT_EQ(arena.advised_chunks(), huge);
}

// A simulation whose slots and timers are warm takes nothing more from
// its arena or from the heap: the event queue reuses its slot chunks.
TEST(ArenaTest, SteadyStateTakesNothingMore) {
  Simulation s;
  std::uint64_t fired = 0;
  const TimerId timer = s.make_timer([&] { ++fired; });
  auto churn = [&] {
    for (int round = 0; round < 200; ++round) {
      for (int i = 0; i < 300; ++i) {
        s.call_in((i * 7919) % 1000 + 1, [&fired] { ++fired; });
      }
      s.arm_in(timer, 500);
      s.run_until(s.now() + 2000);
    }
  };
  churn();  // warm-up: slot chunks, heap keys and free list reach size
  const std::size_t used = s.arena().bytes_used();
  const std::size_t chunks = s.arena().chunk_count();
  const std::uint64_t before = allocs();
  churn();
  EXPECT_EQ(s.arena().bytes_used(), used);
  EXPECT_EQ(s.arena().chunk_count(), chunks);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_EQ(fired, 2u * 200u * 301u);
}

TEST(ArenaTest, DestructionReturnsEveryChunk) {
  const std::int64_t live = live_allocs();
  {
    Arena arena;
    for (int i = 0; i < 40; ++i) arena.allocate(100 << 10, 8);
    EXPECT_GE(arena.chunk_count(), 5u);
    EXPECT_EQ(live_allocs() - live,
              static_cast<std::int64_t>(arena.chunk_count()));
  }
  EXPECT_EQ(live_allocs(), live);

  // A platform's nodes, PCPUs, VMs and VCPUs, a scheduler and a started
  // engine: everything comes back when the simulation goes.
  {
    Simulation s;
    virt::PlatformConfig pc;
    pc.nodes = 4;
    pc.pcpus_per_node = 4;
    virt::Platform platform(s, pc);
    for (int n = 0; n < pc.nodes; ++n) {
      platform.make_scheduler<sched::CreditScheduler>(virt::NodeId{n});
      platform.create_vm(virt::NodeId{n}, virt::VmType::kParallel, 4);
    }
    platform.engine().start();
    s.run_until(1'000'000);
  }
  EXPECT_EQ(live_allocs(), live);
}

#if defined(__SANITIZE_ADDRESS__) && !defined(NDEBUG)
[[gnu::noinline]] std::int32_t read_id(const virt::Vcpu* v) {
  return v->id().value;
}

// The arena leaves a poisoned redzone after every block, so reading one
// VCPU past the end of a VM's array is reported, although the next VM's
// record follows it in the same chunk.
TEST(ArenaDeathTest, OverrunPastAVmsVcpusIsReported) {
  Simulation s;
  virt::PlatformConfig pc;
  pc.nodes = 1;
  pc.pcpus_per_node = 2;
  virt::Platform platform(s, pc);
  virt::Vm& a =
      platform.create_vm(virt::NodeId{0}, virt::VmType::kParallel, 2);
  platform.create_vm(virt::NodeId{0}, virt::VmType::kParallel, 2);
  const virt::Vcpu* past_end = a.vcpus().data() + a.vcpu_count();
  EXPECT_EQ(read_id(a.vcpus().data() + 1), a.vcpus()[1].id().value);
  EXPECT_DEATH(read_id(past_end), "use-after-poison");
}
#endif

}  // namespace
}  // namespace atcsim::sim
