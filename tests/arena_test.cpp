#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace iwg {
namespace {

TEST(ScratchArena, ScopeReleaseReusesMemory) {
  ScratchArena arena;
  float* first = nullptr;
  {
    const ScratchArena::Scope scope(arena);
    first = arena.alloc_floats(100);
    first[0] = 1.0f;
  }
  {
    const ScratchArena::Scope scope(arena);
    float* again = arena.alloc_floats(100);
    EXPECT_EQ(again, first);  // cursor rewound, same storage handed out
  }
}

TEST(ScratchArena, GrowthPreservesEarlierPointers) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  // First allocation fits the first block; the second is far larger than
  // any single block so a new block must be chained in.
  float* small = arena.alloc_floats(16);
  for (int i = 0; i < 16; ++i) small[i] = static_cast<float>(i);
  float* big = arena.alloc_floats(1 << 20);
  big[0] = -1.0f;
  big[(1 << 20) - 1] = -2.0f;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(small[i], static_cast<float>(i));  // untouched by growth
  }
}

TEST(ScratchArena, NestedScopes) {
  ScratchArena arena;
  const ScratchArena::Scope outer(arena);
  float* a = arena.alloc_floats(8);
  a[0] = 42.0f;
  float* inner_ptr = nullptr;
  {
    const ScratchArena::Scope inner(arena);
    inner_ptr = arena.alloc_floats(8);
    EXPECT_NE(inner_ptr, a);
  }
  // Inner scope released its allocation; outer's survives.
  EXPECT_EQ(a[0], 42.0f);
  float* b = arena.alloc_floats(8);
  EXPECT_EQ(b, inner_ptr);  // reuses the inner scope's slot
  EXPECT_EQ(a[0], 42.0f);
}

TEST(ScratchArena, AlignmentIs64Bytes) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  for (int i = 0; i < 8; ++i) {
    void* p = arena.alloc(i * 24 + 1);  // deliberately odd sizes
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
}

TEST(ScratchArena, EveryAllocationAlignedAcrossGrowthAndSkipForward) {
  // The 64-byte contract must hold for *every* returned pointer, not just
  // allocations from the first block: odd sizes walk the bump cursor to
  // non-trivial offsets, large requests chain new blocks, and a request
  // bigger than the current block's remainder takes the skip-forward path
  // (cursor jumps to offset 0 of a later block). The SIMD host kernels rely
  // on this only for performance (they load unaligned by design), but the
  // arena's stated contract is what the test pins down. Every span is also
  // written end to end so ASan would catch an out-of-bounds base.
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  Rng rng(8086);
  std::vector<std::pair<std::byte*, std::size_t>> live;
  for (int i = 0; i < 200; ++i) {
    std::size_t bytes;
    if (i % 17 == 16) {
      bytes = (std::size_t{1} << 16) + rng.below(1 << 18);  // force growth
    } else {
      bytes = 1 + rng.below(4093);  // odd interior sizes
    }
    auto* p = static_cast<std::byte*>(arena.alloc(bytes));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u)
        << "allocation " << i << " of " << bytes << " bytes";
    std::memset(p, static_cast<int>(i & 0xff), bytes);
    live.emplace_back(p, bytes);
  }
  // Earlier spans survived later growth with their patterns intact.
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto [p, bytes] = live[i];
    EXPECT_EQ(static_cast<unsigned>(p[0]), i & 0xff);
    EXPECT_EQ(static_cast<unsigned>(p[bytes - 1]), i & 0xff);
  }
}

TEST(ScratchArena, HighWaterTracksPeakNotCurrent) {
  ScratchArena arena;
  {
    const ScratchArena::Scope scope(arena);
    arena.alloc(1024);
    arena.alloc(2048);
  }
  const std::size_t peak = arena.high_water();
  EXPECT_GE(peak, 1024u + 2048u);
  {
    const ScratchArena::Scope scope(arena);
    arena.alloc(64);
  }
  EXPECT_EQ(arena.high_water(), peak);  // monotonic
  EXPECT_GE(ScratchArena::max_high_water(), peak);
}

TEST(ScratchArena, OutermostScopeReplacesASkippedChainWithOneBlock) {
  // Requests that each outgrow the block before them chain new blocks and
  // skip the old ones. high_water() counts the bytes handed out, not the
  // skipped tails, and the next outermost scope replaces the chain with one
  // block of the high water rounded up to 64 KiB; a second pass of the same
  // requests then fits that block.
  constexpr std::size_t kKiB = 1024;
  const std::size_t sizes[] = {48 * kKiB, 100 * kKiB, 200 * kKiB, 400 * kKiB,
                               1024 * kKiB};
  ScratchArena arena;
  for (const std::size_t bytes : sizes) {
    const ScratchArena::Scope scope(arena);
    static_cast<std::byte*>(arena.alloc(bytes))[bytes - 1] = std::byte{1};
  }
  EXPECT_EQ(arena.high_water(), 1024 * kKiB);
  { const ScratchArena::Scope scope(arena); }
  const std::size_t held = arena.capacity();
  EXPECT_GE(held, arena.high_water());
  EXPECT_LE(held, (arena.high_water() + 64 * kKiB - 1) / (64 * kKiB) *
                      (64 * kKiB));
  for (const std::size_t bytes : sizes) {
    const ScratchArena::Scope scope(arena);
    static_cast<std::byte*>(arena.alloc(bytes))[bytes - 1] = std::byte{2};
    EXPECT_EQ(arena.capacity(), held);
  }
  EXPECT_EQ(arena.high_water(), 1024 * kKiB);
}

TEST(ScratchArena, TrimReleasesPeakCapacity) {
  ScratchArena arena;
  {
    const ScratchArena::Scope scope(arena);
    arena.alloc(std::size_t{4} << 20);  // force growth well past block 0
  }
  const std::size_t peak_capacity = arena.capacity();
  EXPECT_GE(peak_capacity, std::size_t{4} << 20);
  arena.trim(/*keep_bytes=*/64 * 1024);
  EXPECT_LT(arena.capacity(), peak_capacity);
  EXPECT_LE(arena.capacity(), std::size_t{64} * 1024);
  // high_water stays monotonic; the arena still works after trimming.
  EXPECT_GE(arena.high_water(), std::size_t{4} << 20);
  {
    const ScratchArena::Scope scope(arena);
    float* p = arena.alloc_floats(256);
    p[0] = 3.0f;
    p[255] = 4.0f;
    EXPECT_EQ(p[0], 3.0f);
    EXPECT_EQ(p[255], 4.0f);
  }
}

TEST(ScratchArena, TrimIsNoopUnderOpenScope) {
  ScratchArena arena;
  const ScratchArena::Scope scope(arena);
  float* p = arena.alloc_floats(std::size_t{1} << 20);
  p[0] = 7.0f;
  const std::size_t before = arena.capacity();
  arena.trim(0);  // must not drop blocks with a live scope
  EXPECT_EQ(arena.capacity(), before);
  EXPECT_EQ(p[0], 7.0f);
}

TEST(ScratchArena, TrimToZeroDropsEverythingUnused) {
  ScratchArena arena;
  {
    const ScratchArena::Scope scope(arena);
    arena.alloc(1024);
  }
  arena.trim(0);
  EXPECT_EQ(arena.capacity(), 0u);
  {
    const ScratchArena::Scope scope(arena);  // regrows on demand
    float* p = arena.alloc_floats(8);
    p[0] = 1.0f;
    EXPECT_EQ(p[0], 1.0f);
  }
}

TEST(ScratchArena, TrimAllReachesOtherThreadsAtNextScope) {
  // Grow a worker thread's arena, broadcast trim_all from the main thread,
  // then have the worker open another scope: the epoch check must have
  // trimmed its arena back down before the allocation.
  std::atomic<std::size_t> grown_capacity{0};
  std::atomic<std::size_t> after_trim_capacity{0};
  std::atomic<int> stage{0};
  std::thread t([&] {
    ScratchArena& arena = ScratchArena::local();
    {
      const ScratchArena::Scope scope(arena);
      arena.alloc(std::size_t{4} << 20);
    }
    grown_capacity = arena.capacity();
    stage = 1;
    while (stage.load() != 2) std::this_thread::yield();
    {
      const ScratchArena::Scope scope(arena);  // honors the trim epoch here
      arena.alloc(64);
    }
    after_trim_capacity = arena.capacity();
  });
  while (stage.load() != 1) std::this_thread::yield();
  ScratchArena::trim_all(/*keep_bytes=*/64 * 1024);
  stage = 2;
  t.join();
  EXPECT_GE(grown_capacity.load(), std::size_t{4} << 20);
  EXPECT_LT(after_trim_capacity.load(), grown_capacity.load());
}

TEST(ScratchArena, ThreadLocalInstancesAreDistinct) {
  ScratchArena* main_arena = &ScratchArena::local();
  ScratchArena* worker_arena = nullptr;
  std::thread t([&] { worker_arena = &ScratchArena::local(); });
  t.join();
  EXPECT_NE(main_arena, worker_arena);
}

TEST(ScratchArena, ParallelForTasksGetIndependentScratch) {
  // Every task writes a distinct pattern into its own scoped buffer and
  // verifies it after a rendezvous-free delay — cross-task interference
  // would corrupt the pattern.
  std::vector<std::atomic<int>> ok(64);
  for (auto& o : ok) o = 0;
  parallel_for(64, [&](std::int64_t i) {
    ScratchArena& arena = ScratchArena::local();
    const ScratchArena::Scope scope(arena);
    float* buf = arena.alloc_floats(256);
    for (int j = 0; j < 256; ++j) buf[j] = static_cast<float>(i * 1000 + j);
    bool good = true;
    for (int j = 0; j < 256; ++j) {
      good = good && buf[j] == static_cast<float>(i * 1000 + j);
    }
    ok[static_cast<std::size_t>(i)] = good ? 1 : 0;
  });
  for (auto& o : ok) EXPECT_EQ(o.load(), 1);
}

}  // namespace
}  // namespace iwg
