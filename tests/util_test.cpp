// ThreadPool, AlignedBuffer, BufferPool, RunningStats, percentile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <latch>
#include <numeric>
#include <random>
#include <thread>

#include "util/aligned_buffer.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 42; });
  auto f2 = pool.submit([] { return std::string("hello"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "hello");
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10007);
  pool.parallel_for(hits.size(), [&](u64 b, u64 e) {
    for (u64 i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSmall) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](u64, u64) { FAIL() << "must not be called"; });
  std::atomic<u64> sum{0};
  pool.parallel_for(3, [&](u64 b, u64 e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(ThreadPool, ParallelForFromOwnWorkersDoesNotDeadlock) {
  // Every worker runs a task that fans out over the same pool; the latch
  // makes all of them busy before any fans out. Queued behind busy
  // workers, the chunks would never run; the calls must run inline.
  constexpr std::size_t kThreads = 4;
  constexpr u64 kElems = 1 << 20;
  auto* pool = new ThreadPool(kThreads);
  std::vector<std::atomic<u64>> sums(kThreads);
  std::latch all_busy(kThreads);
  std::vector<std::future<void>> outer;
  for (std::size_t t = 0; t < kThreads; ++t) {
    outer.push_back(pool->submit([pool, &sums, &all_busy, t] {
      all_busy.arrive_and_wait();
      pool->parallel_for(kElems,
                         [&sums, t](u64 b, u64 e) { sums[t] += e - b; });
    }));
  }
  for (auto& f : outer) {
    if (f.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      // The workers are wedged, so joining them would hang: leak the pool.
      FAIL() << "parallel_for from a pool worker deadlocked";
    }
    f.get();
  }
  for (const auto& s : sums) EXPECT_EQ(s.load(), kElems);
  delete pool;
}

TEST(ThreadPool, ManyConcurrentSubmits) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 1000; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 1000);
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer buf(1000, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  for (const u8 b : buf.bytes()) EXPECT_EQ(b, 0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer a(128);
  a.data()[0] = 7;
  AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data()[0], 7);
  EXPECT_EQ(a.size(), 0u);
}

TEST(AlignedBuffer, TypedView) {
  AlignedBuffer buf(16 * sizeof(f32));
  auto floats = buf.as<f32>();
  EXPECT_EQ(floats.size(), 16u);
  floats[3] = 1.5f;
  EXPECT_EQ(buf.as<f32>()[3], 1.5f);
}

TEST(AlignedBuffer, PopulatedIsZeroedWritableAndMovable) {
  // Below and above the size from which the slab asks for huge pages.
  for (const std::size_t size : {std::size_t{1}, std::size_t{5000},
                                 (std::size_t{16} << 20) + 12345}) {
    AlignedBuffer buf = AlignedBuffer::populated(size);
    ASSERT_EQ(buf.size(), size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
    EXPECT_TRUE(std::all_of(buf.bytes().begin(), buf.bytes().end(),
                            [](u8 b) { return b == 0; }))
        << size;
    buf.data()[size - 1] = 9;
    AlignedBuffer moved(std::move(buf));
    EXPECT_EQ(moved.data()[size - 1], 9);
    EXPECT_EQ(buf.size(), 0u);
    buf = std::move(moved);  // move-assign back; both release cleanly
    EXPECT_EQ(buf.data()[size - 1], 9);
  }
  EXPECT_TRUE(AlignedBuffer::populated(0).empty());
}

TEST(BufferPool, AcquireReleaseCycle) {
  BufferPool::Options o;
  o.slab_bytes = 2 * 4096;  // two granules; a 64-byte lease takes one
  BufferPool pool(o);
  EXPECT_EQ(pool.free_bytes(), 2u * 4096);
  {
    auto l1 = pool.acquire(64);
    auto l2 = pool.acquire(64);
    EXPECT_EQ(pool.free_bytes(), 0u);
    EXPECT_FALSE(pool.try_acquire(64).valid());
  }
  EXPECT_EQ(pool.free_bytes(), 2u * 4096);
}

TEST(BufferPool, BlockingAcquireWakesOnRelease) {
  BufferPool::Options o;
  o.slab_bytes = 4096;  // one granule; a 64-byte lease takes it all
  BufferPool pool(o);
  auto lease = pool.acquire(64);
  std::atomic<bool> got{false};
  std::thread t([&] {
    auto l = pool.acquire(64);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  lease.release();
  t.join();
  EXPECT_TRUE(got.load());
}

TEST(RunningStats, MomentsMatchDirectComputation) {
  std::mt19937 rng(42);
  std::normal_distribution<f64> dist(5.0, 2.0);
  std::vector<f64> xs(1000);
  RunningStats stats;
  for (auto& x : xs) {
    x = dist(rng);
    stats.add(x);
  }
  const f64 mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  f64 var = 0;
  for (const f64 x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_NEAR(stats.mean(), mean, 1e-9);
  EXPECT_NEAR(stats.variance(), var, 1e-9);
  EXPECT_EQ(stats.count(), xs.size());
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 100; ++i) {
    const f64 x = std::sin(i * 0.7) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Percentile, InterpolatesCorrectly) {
  std::vector<f64> xs = {1, 2, 3, 4, 5};
  EXPECT_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_NEAR(percentile(xs, 0.1), 1.4, 1e-12);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace mlpo
