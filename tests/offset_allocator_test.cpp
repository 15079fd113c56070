// OffsetAllocator + BufferPool unit suite: O(1) alloc/free semantics,
// boundary-tag coalescing, fragmentation bounds, out-of-slab handling, and
// the pool's blocking/heap-fallback contract that the alloc-churn metric
// gates on.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "util/aligned_buffer.hpp"
#include "util/offset_allocator.hpp"

namespace mlpo {
namespace {

constexpr u64 kG = 4096;

TEST(OffsetAllocator, AllocateRoundsUpToGranule) {
  OffsetAllocator a(16 * kG, kG);
  const auto al = a.allocate(1);
  ASSERT_TRUE(al.valid());
  EXPECT_EQ(al.bytes, kG);
  EXPECT_EQ(al.offset % kG, 0u);
  EXPECT_EQ(a.free_bytes(), 15 * kG);
  a.release(al);
  EXPECT_EQ(a.free_bytes(), 16 * kG);
}

TEST(OffsetAllocator, ZeroByteRequestStillReservesOnePage) {
  OffsetAllocator a(4 * kG, kG);
  const auto al = a.allocate(0);
  ASSERT_TRUE(al.valid());
  EXPECT_EQ(al.bytes, kG);
  a.release(al);
}

TEST(OffsetAllocator, OffsetsNeverOverlap) {
  OffsetAllocator a(32 * kG, kG);
  std::vector<OffsetAllocator::Allocation> held;
  for (int i = 0; i < 8; ++i) {
    const auto al = a.allocate(3 * kG);
    ASSERT_TRUE(al.valid());
    for (const auto& other : held) {
      const bool disjoint = al.offset + al.bytes <= other.offset ||
                            other.offset + other.bytes <= al.offset;
      EXPECT_TRUE(disjoint);
    }
    held.push_back(al);
  }
  for (const auto& al : held) a.release(al);
  EXPECT_EQ(a.free_bytes(), 32 * kG);
}

TEST(OffsetAllocator, OutOfSlabRequestFailsCleanly) {
  OffsetAllocator a(8 * kG, kG);
  EXPECT_FALSE(a.allocate(9 * kG).valid());
  // And an over-committed slab fails without disturbing existing holds.
  const auto al = a.allocate(6 * kG);
  ASSERT_TRUE(al.valid());
  EXPECT_FALSE(a.allocate(3 * kG).valid());
  a.release(al);
  EXPECT_TRUE(a.allocate(8 * kG).valid());
}

TEST(OffsetAllocator, ReleaseCoalescesBothNeighbours) {
  OffsetAllocator a(8 * kG, kG);
  const auto l = a.allocate(2 * kG);
  const auto m = a.allocate(2 * kG);
  const auto r = a.allocate(2 * kG);
  ASSERT_TRUE(l.valid() && m.valid() && r.valid());
  a.release(l);
  a.release(r);
  // Freeing the middle block must merge left + middle + right + the
  // untouched tail into one run covering the whole slab.
  a.release(m);
  const auto rep = a.report();
  EXPECT_EQ(rep.free_runs, 1u);
  EXPECT_EQ(rep.largest_free_bytes, 8 * kG);
}

TEST(OffsetAllocator, FragmentationBoundedByGoodFit) {
  // Alternating alloc/free leaves holes; a request equal to the largest
  // hole must still succeed (the class peek), and total waste per
  // allocation is bounded by one granule of rounding.
  OffsetAllocator a(64 * kG, kG);
  std::vector<OffsetAllocator::Allocation> held;
  for (int i = 0; i < 16; ++i) held.push_back(a.allocate(2 * kG));
  for (std::size_t i = 0; i < held.size(); i += 2) a.release(held[i]);
  // 8 two-page holes + the 32-page tail; a 2-page request must not fail.
  const auto fit = a.allocate(2 * kG);
  EXPECT_TRUE(fit.valid());
  a.release(fit);
  const auto rep = a.report();
  EXPECT_GE(rep.largest_free_bytes, 32 * kG);
  for (std::size_t i = 1; i < held.size(); i += 2) a.release(held[i]);
  EXPECT_EQ(a.report().free_runs, 1u);
}

TEST(OffsetAllocator, DoubleFreeThrows) {
  OffsetAllocator a(8 * kG, kG);
  const auto al = a.allocate(2 * kG);
  ASSERT_TRUE(al.valid());
  a.release(al);
  EXPECT_THROW(a.release(al), std::logic_error);
}

TEST(OffsetAllocator, ForeignReleaseThrows) {
  OffsetAllocator a(8 * kG, kG);
  OffsetAllocator::Allocation fake;
  fake.offset = 1;  // not granule-aligned
  fake.bytes = kG;
  EXPECT_THROW(a.release(fake), std::logic_error);
  fake.offset = 64 * kG;  // outside the slab
  EXPECT_THROW(a.release(fake), std::logic_error);
}

TEST(OffsetAllocator, RandomizedChurnConservesBytes) {
  OffsetAllocator a(64 * kG, kG);
  std::mt19937 rng(1234);
  std::vector<OffsetAllocator::Allocation> held;
  u64 held_bytes = 0;
  for (int it = 0; it < 20000; ++it) {
    if (held.empty() || (rng() % 2 == 0 && held_bytes < 48 * kG)) {
      const auto al = a.allocate(1 + rng() % (6 * kG));
      if (al.valid()) {
        held.push_back(al);
        held_bytes += al.bytes;
      }
    } else {
      const std::size_t i = rng() % held.size();
      held_bytes -= held[i].bytes;
      a.release(held[i]);
      held[i] = held.back();
      held.pop_back();
    }
    ASSERT_EQ(a.free_bytes(), 64 * kG - held_bytes);
  }
  for (const auto& al : held) a.release(al);
  const auto rep = a.report();
  EXPECT_EQ(rep.free_runs, 1u);  // full coalescing, no leaked pages
  EXPECT_EQ(rep.free_bytes, 64 * kG);
}

// --- BufferPool over the allocator -----------------------------------------

TEST(BufferPoolSlab, LeasesAreAlignedAndZeroChurn) {
  BufferPool::Options o;
  o.slab_bytes = 8 * kG;
  BufferPool pool(o);
  auto a = pool.acquire(100);
  auto b = pool.acquire(2 * kG);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % kG, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % kG, 0u);
  a.release();
  b.release();
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.releases, 2u);
  EXPECT_EQ(s.heap_fallbacks, 0u);
  EXPECT_EQ(s.bytes_in_use, 0u);
}

TEST(BufferPoolSlab, OversizeRequestFallsBackToHeapAndIsCounted) {
  BufferPool::Options o;
  o.slab_bytes = 4 * kG;
  BufferPool pool(o);
  {
    auto lease = pool.acquire(16 * kG);  // larger than the whole slab
    ASSERT_TRUE(lease.valid());
    lease.bytes()[0] = 1;  // must be writable
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.heap_fallbacks, 1u);
  EXPECT_EQ(s.releases, 1u);
}

TEST(BufferPoolSlab, TryAcquireFailsWithoutBlocking) {
  BufferPool::Options o;
  o.slab_bytes = 2 * kG;
  BufferPool pool(o);
  auto hold = pool.acquire(2 * kG);
  EXPECT_FALSE(pool.try_acquire(kG).valid());
  hold.release();
  EXPECT_TRUE(pool.try_acquire(kG).valid());
}

TEST(BufferPoolSlab, AcquireBlocksUntilSpaceFrees) {
  BufferPool::Options o;
  o.slab_bytes = 2 * kG;
  BufferPool pool(o);
  auto hold = pool.acquire(2 * kG);
  std::thread waiter([&] {
    auto lease = pool.acquire(kG);  // blocks until `hold` releases
    EXPECT_TRUE(lease.valid());
  });
  // Give the waiter time to park, then free the slab.
  while (pool.stats().blocked_waits == 0) std::this_thread::yield();
  hold.release();
  waiter.join();
  EXPECT_GE(pool.stats().blocked_waits, 1u);
}

}  // namespace
}  // namespace mlpo
