// ThreadPool, BufferPool, RunningStats, percentile, Histogram.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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

TEST(BufferPool, AcquireReleaseCycle) {
  BufferPool pool(2, 64);
  EXPECT_EQ(pool.available(), 2u);
  {
    auto l1 = pool.acquire();
    auto l2 = pool.acquire();
    EXPECT_EQ(pool.available(), 0u);
    EXPECT_FALSE(pool.try_acquire().valid());
  }
  EXPECT_EQ(pool.available(), 2u);
}

TEST(BufferPool, BlockingAcquireWakesOnRelease) {
  BufferPool pool(1, 64);
  auto lease = pool.acquire();
  std::atomic<bool> got{false};
  std::thread t([&] {
    auto l = pool.acquire();
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

TEST(Histogram, BadArgumentsThrowBeforeAnyArithmetic) {
  // Regression: the constructor used to compute width_ (a division by
  // `buckets`) in the init list before the body's validation ran. Both
  // bad-argument classes must throw cleanly.
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 10.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(10.0, 0.0, 0), std::invalid_argument);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bucket 0
  h.add(9.99);  // bucket 9
  h.add(-5.0);  // clamps to bucket 0
  h.add(50.0);  // clamps to bucket 9
  h.add(5.0);   // bucket 5
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[9], 2u);
  EXPECT_EQ(h.buckets()[5], 1u);
  EXPECT_EQ(h.bucket_lo(5), 5.0);
  EXPECT_EQ(h.bucket_hi(5), 6.0);
  EXPECT_FALSE(h.ascii().empty());
}

}  // namespace
}  // namespace mlpo
