// IoScheduler: priority ordering, per-channel backpressure, cancellation
// of queued requests, completion callbacks on the inline and async paths,
// the owned link limiters, and the strict-FIFO baseline mode.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "io/io_batch.hpp"
#include "io/io_scheduler.hpp"
#include "io/uring_backend.hpp"
#include "tiers/failstop_tier.hpp"
#include "tiers/memory_tier.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {
namespace {

using namespace std::chrono_literals;

// A request whose work parks its dispatch thread until `gate` is released.
// Pass `tier` to park that tier's dedicated external channel; `entered`
// (if given) resolves once the blocker is executing.
IoRequest blocker(std::shared_future<void> gate,
                  std::promise<void>* entered = nullptr,
                  StorageTier* tier = nullptr) {
  IoRequest req;
  req.op = IoOp::kWrite;
  req.target = IoTarget::kExternal;
  req.tier = tier;
  req.key = "blocker";
  req.sim_bytes = 64 * MiB;
  req.priority = IoPriority::kDemandPrefetch;
  req.work = [gate, entered](IoChannel&) -> u64 {
    if (entered != nullptr) entered->set_value();
    gate.wait();
    return 0;
  };
  return req;
}

// Spin until the queue has dispatched everything it holds (the blocker is
// *executing*, not queued, once this returns).
void wait_until_drained_into_dispatch(const IoScheduler& sched,
                                      std::size_t queue) {
  for (int i = 0; i < 2000 && sched.queued(queue) > 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(sched.queued(queue), 0u);
}

IoRequest tagged(IoPriority priority, std::vector<IoPriority>* order,
                 std::mutex* mu) {
  IoRequest req;
  req.op = IoOp::kWrite;
  req.target = IoTarget::kExternal;
  req.key = io_priority_name(priority);
  req.sim_bytes = 8 * MiB;
  req.priority = priority;
  req.work = [priority, order, mu](IoChannel&) -> u64 {
    std::lock_guard lk(*mu);
    order->push_back(priority);
    return 0;
  };
  return req;
}

TEST(IoScheduler, DispatchesByPriorityClassNotArrivalOrder) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::mutex mu;
  std::vector<IoPriority> order;
  IoBatch batch;
  // Submitted weakest-first; must execute strongest-first.
  batch.add(sched.submit(tagged(IoPriority::kCheckpoint, &order, &mu)));
  batch.add(sched.submit(tagged(IoPriority::kLazyFlush, &order, &mu)));
  batch.add(sched.submit(tagged(IoPriority::kGradDeposit, &order, &mu)));
  batch.add(sched.submit(tagged(IoPriority::kDemandPrefetch, &order, &mu)));

  go.set_value();
  f0.get();
  batch.wait_all();

  const std::vector<IoPriority> expect = {
      IoPriority::kDemandPrefetch, IoPriority::kGradDeposit,
      IoPriority::kLazyFlush, IoPriority::kCheckpoint};
  EXPECT_EQ(order, expect);
}

TEST(IoScheduler, StrictFifoDispatchesInArrivalOrder) {
  SimClock clock(1.0);
  IoScheduler::Config cfg;
  cfg.strict_fifo = true;
  IoScheduler sched(clock, nullptr, cfg);

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::mutex mu;
  std::vector<IoPriority> order;
  IoBatch batch;
  batch.add(sched.submit(tagged(IoPriority::kCheckpoint, &order, &mu)));
  batch.add(sched.submit(tagged(IoPriority::kLazyFlush, &order, &mu)));
  batch.add(sched.submit(tagged(IoPriority::kDemandPrefetch, &order, &mu)));

  go.set_value();
  f0.get();
  batch.wait_all();

  const std::vector<IoPriority> expect = {IoPriority::kCheckpoint,
                                          IoPriority::kLazyFlush,
                                          IoPriority::kDemandPrefetch};
  EXPECT_EQ(order, expect);
}

TEST(IoScheduler, SubmitBlocksWhenChannelQueueIsFull) {
  SimClock clock(1.0);
  IoScheduler::Config cfg;
  cfg.queue_depth = 4;
  IoScheduler sched(clock, nullptr, cfg);

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::atomic<int> executed{0};
  const auto noop = [&executed] {
    IoRequest req;
    req.op = IoOp::kWrite;
    req.target = IoTarget::kExternal;
    req.key = "noop";
    req.sim_bytes = 8 * MiB;
    req.priority = IoPriority::kLazyFlush;
    req.work = [&executed](IoChannel&) -> u64 {
      executed.fetch_add(1);
      return 0;
    };
    return req;
  };

  IoBatch batch;
  for (int i = 0; i < 4; ++i) batch.add(sched.submit(noop()));
  ASSERT_EQ(sched.queued(sched.external_queue()), 4u);

  // The 5th submission must block until the dispatcher frees a slot.
  std::atomic<bool> fifth_submitted{false};
  std::thread submitter([&] {
    batch.add(sched.submit(noop()));
    fifth_submitted.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(fifth_submitted.load())
      << "submit returned despite a full queue";

  go.set_value();
  f0.get();
  submitter.join();
  EXPECT_TRUE(fifth_submitted.load());
  batch.wait_all();
  EXPECT_EQ(executed.load(), 5);
}

TEST(IoScheduler, CancelledQueuedFlushesAreDroppedAtDispatch) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::atomic<int> executed{0};
  std::vector<std::future<void>> cancelled_futs;
  std::vector<CancellationToken> tokens;
  for (int i = 0; i < 3; ++i) {
    IoRequest req;
    req.op = IoOp::kWrite;
    req.target = IoTarget::kExternal;
    req.key = "flush" + std::to_string(i);
    req.sim_bytes = 8 * MiB;
    req.priority = IoPriority::kLazyFlush;
    req.work = [&executed](IoChannel&) -> u64 {
      executed.fetch_add(1);
      return 0;
    };
    tokens.push_back(req.token);
    cancelled_futs.push_back(sched.submit(std::move(req)));
  }
  // One survivor behind the cancelled ones proves the queue keeps flowing.
  std::atomic<bool> survivor_ran{false};
  IoRequest survivor;
  survivor.op = IoOp::kWrite;
  survivor.target = IoTarget::kExternal;
  survivor.key = "survivor";
  survivor.sim_bytes = 8 * MiB;
  survivor.priority = IoPriority::kLazyFlush;
  survivor.work = [&survivor_ran](IoChannel&) -> u64 {
    survivor_ran.store(true);
    return 0;
  };
  auto survivor_fut = sched.submit(std::move(survivor));

  for (auto& t : tokens) t.cancel();
  go.set_value();
  f0.get();

  for (auto& fut : cancelled_futs) {
    EXPECT_THROW(fut.get(), IoCancelled);
  }
  survivor_fut.get();
  EXPECT_EQ(executed.load(), 0) << "cancelled work must never run";
  EXPECT_TRUE(survivor_ran.load());

  const auto stats = sched.stats();
  const auto& flush =
      stats.priority[static_cast<std::size_t>(IoPriority::kLazyFlush)];
  EXPECT_EQ(flush.cancelled, 3u);
  EXPECT_EQ(flush.completed, 1u);
}

TEST(IoScheduler, TierRoundtripWithAutoPathReadRouting) {
  SimClock clock(1.0);
  VirtualTier vtier;
  vtier.add_path(std::make_shared<MemoryTier>("m0"));
  vtier.add_path(std::make_shared<MemoryTier>("m1"));
  IoScheduler sched(clock, &vtier, {});

  const std::vector<u8> data = {1, 2, 3, 4, 5};
  IoRequest wr;
  wr.op = IoOp::kWrite;
  wr.key = "obj";
  wr.src = data;
  wr.path = 1;  // placement decision rides the path hint
  wr.priority = IoPriority::kLazyFlush;
  sched.submit(std::move(wr)).get();
  EXPECT_EQ(vtier.locate("obj"), 1u);

  std::vector<u8> out(5);
  IoRequest rd;
  rd.op = IoOp::kRead;
  rd.key = "obj";
  rd.dst = out;  // path defaults to kAutoPath: routed by location map
  rd.priority = IoPriority::kDemandPrefetch;
  sched.submit(std::move(rd)).get();
  EXPECT_EQ(out, data);
}

TEST(IoScheduler, UnknownKeyReadFailsThroughFuture) {
  SimClock clock(1.0);
  VirtualTier vtier;
  vtier.add_path(std::make_shared<MemoryTier>("m0"));
  IoScheduler sched(clock, &vtier, {});

  std::vector<u8> out(4);
  IoRequest rd;
  rd.op = IoOp::kRead;
  rd.key = "missing";
  rd.dst = out;
  auto fut = sched.submit(std::move(rd));
  EXPECT_THROW(fut.get(), std::out_of_range);
}

TEST(IoScheduler, TierWriteWithoutPathHintIsRejected) {
  SimClock clock(1.0);
  VirtualTier vtier;
  vtier.add_path(std::make_shared<MemoryTier>("m0"));
  IoScheduler sched(clock, &vtier, {});

  IoRequest wr;
  wr.op = IoOp::kWrite;
  wr.key = "obj";
  EXPECT_THROW(sched.submit(std::move(wr)), std::invalid_argument);
}

TEST(IoScheduler, CompletionCallbackFeedsObservedBandwidth) {
  SimClock clock(10000.0);
  VirtualTier vtier;
  vtier.add_path(std::make_shared<MemoryTier>("m0"));
  IoScheduler sched(clock, &vtier, {});

  const std::vector<u8> data(256, 7);
  IoResult seen;
  std::atomic<bool> called{false};
  IoRequest wr;
  wr.op = IoOp::kWrite;
  wr.key = "obj";
  wr.src = data;
  wr.sim_bytes = 2 * MiB;
  wr.path = 0;
  wr.priority = IoPriority::kLazyFlush;
  wr.on_complete = [&](const IoResult& r) {
    seen = r;
    called.store(true);
  };
  sched.submit(std::move(wr)).get();

  ASSERT_TRUE(called.load());
  EXPECT_EQ(seen.priority, IoPriority::kLazyFlush);
  EXPECT_EQ(seen.sim_bytes, 2u * MiB);
  EXPECT_GE(seen.queue_wait_seconds, 0.0);
  EXPECT_GE(seen.service_seconds, 0.0);

  const auto stats = sched.stats();
  const auto& flush =
      stats.priority[static_cast<std::size_t>(IoPriority::kLazyFlush)];
  EXPECT_EQ(flush.submitted, 1u);
  EXPECT_EQ(flush.completed, 1u);
  EXPECT_EQ(flush.sim_bytes, 2u * MiB);
}

TEST(IoScheduler, DrainWaitsForEverySubmittedRequest) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  MemoryTier store("store");

  std::atomic<int> done{0};
  IoBatch batch;
  for (int i = 0; i < 32; ++i) {
    IoRequest req;
    req.op = IoOp::kWrite;
    req.target = IoTarget::kExternal;
    req.key = "k" + std::to_string(i);
    req.sim_bytes = 8 * MiB;
    req.priority = IoPriority::kCheckpoint;
    req.work = [&done](IoChannel&) -> u64 {
      std::this_thread::sleep_for(100us);
      done.fetch_add(1);
      return 0;
    };
    batch.add(sched.submit(std::move(req)));
  }
  sched.drain();
  EXPECT_EQ(done.load(), 32);
  batch.wait_all();
}

TEST(IoScheduler, DistinctExternalTiersDispatchConcurrently) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  MemoryTier a("tier-a");
  MemoryTier b("tier-b");

  std::promise<void> go;
  std::promise<void> entered;
  auto fa = sched.submit(blocker(go.get_future().share(), &entered, &a));
  entered.get_future().wait();

  // Tier b gets its own channel: this write completes while tier a's
  // channel is parked (it would hang here if external tiers shared one
  // dispatch thread).
  const std::vector<u8> data(16, 1);
  IoRequest req;
  req.op = IoOp::kWrite;
  req.target = IoTarget::kExternal;
  req.tier = &b;
  req.key = "k";
  req.src = data;
  req.priority = IoPriority::kLazyFlush;
  sched.submit(std::move(req)).get();
  EXPECT_TRUE(b.exists("k"));

  go.set_value();
  fa.get();
}

// IoBatch semantics over scheduler-submitted work (absorbed from the
// retired AioEngine suite — the batch contract outlived the flat-FIFO
// engine it was written against).

namespace {
IoRequest task(std::function<void()> fn) {
  static std::atomic<int> counter{0};
  IoRequest req;
  req.op = IoOp::kWrite;
  req.target = IoTarget::kExternal;
  req.key = "task" + std::to_string(counter.fetch_add(1));
  req.sim_bytes = 8 * MiB;
  req.priority = IoPriority::kCheckpoint;
  req.work = [fn = std::move(fn)](IoChannel&) -> u64 {
    fn();
    return 0;
  };
  return req;
}
}  // namespace

TEST(IoBatch, WaitAllPropagatesFirstError) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  IoBatch batch;
  std::atomic<int> ok{0};
  batch.add(sched.submit(task([&ok] { ok.fetch_add(1); })));
  batch.add(sched.submit(task([] { throw std::runtime_error("io failed"); })));
  batch.add(sched.submit(task([&ok] { ok.fetch_add(1); })));
  EXPECT_THROW(batch.wait_all(), std::runtime_error);
  // All operations settled despite the failure.
  EXPECT_EQ(ok.load(), 2);
  // Batch is reusable after wait_all.
  batch.add(sched.submit(task([&ok] { ok.fetch_add(1); })));
  batch.wait_all();
  EXPECT_EQ(ok.load(), 3);
}

TEST(IoBatch, WaitAllAggregatesEveryError) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  IoBatch batch;
  batch.add(sched.submit(task([] { throw std::runtime_error("path0 down"); })));
  batch.add(sched.submit(task([] { throw std::runtime_error("path1 down"); })));
  batch.add(sched.submit(task([] {})));
  try {
    batch.wait_all();
    FAIL() << "expected an aggregated error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 operations failed"), std::string::npos) << what;
    EXPECT_NE(what.find("path0 down"), std::string::npos) << what;
    EXPECT_NE(what.find("path1 down"), std::string::npos) << what;
  }
}

TEST(IoBatch, SingleFailurePreservesExceptionType) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  IoBatch batch;
  batch.add(sched.submit(task([] { throw std::out_of_range("missing key"); })));
  EXPECT_THROW(batch.wait_all(), std::out_of_range);
}

TEST(IoBatch, EmptyBatchIsFine) {
  IoBatch batch;
  batch.wait_all();
  EXPECT_EQ(batch.size(), 0u);
}

TEST(IoScheduler, LinkRequestsCompleteWithoutLimiter) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  IoRequest d2h;
  d2h.target = IoTarget::kD2HLink;
  d2h.key = "grad";
  d2h.sim_bytes = 1 * MiB;
  d2h.priority = IoPriority::kGradDeposit;
  sched.submit(std::move(d2h)).get();

  IoRequest h2d;
  h2d.target = IoTarget::kH2DLink;
  h2d.key = "params";
  h2d.sim_bytes = 1 * MiB;
  h2d.priority = IoPriority::kDemandPrefetch;
  sched.submit(std::move(h2d)).get();
  SUCCEED();
}

TEST(IoScheduler, OwnedLinkLimitersChargeBothLinksIndependently) {
  // 40 MiB at 1 MiB per vsecond = 40 vsec = 40 ms real: well above timer
  // jitter, and the 1.5x upper bound still sits below the 2x a shared
  // channel would take.
  constexpr u64 kBytes = 40 * MiB;
  constexpr f64 kSeconds = 40.0;
  SimClock clock(1000.0);
  IoScheduler::Config cfg;
  cfg.link_bandwidth = static_cast<f64>(MiB);
  IoScheduler sched(clock, nullptr, cfg);
  const auto link = [](IoTarget target) {
    IoRequest req;
    req.target = target;
    req.key = "link";
    req.sim_bytes = kBytes;
    req.priority = IoPriority::kGradDeposit;
    return req;
  };

  for (const IoTarget target : {IoTarget::kD2HLink, IoTarget::kH2DLink}) {
    const f64 t0 = clock.now();
    sched.submit(link(target)).get();
    const f64 elapsed = clock.now() - t0;
    EXPECT_GE(elapsed, 0.95 * kSeconds);
    EXPECT_LT(elapsed, 1.5 * kSeconds);
  }

  const f64 t0 = clock.now();
  auto d2h = sched.submit(link(IoTarget::kD2HLink));
  auto h2d = sched.submit(link(IoTarget::kH2DLink));
  d2h.get();
  h2d.get();
  const f64 elapsed = clock.now() - t0;
  EXPECT_GE(elapsed, 0.95 * kSeconds);
  EXPECT_LT(elapsed, 1.5 * kSeconds) << "D2H and H2D share one channel";
}

// One write, its read-back, and a write whose on_complete hook throws, all
// through a one-path vtier over `path`. Returns what the scheduler folded
// and what the hooks saw, so the inline (sync tier) and completion-callback
// (async tier) paths can be compared field by field.
struct CompletionProbe {
  IoScheduler::Stats stats;
  IoScheduler::Stats tenant0;
  int write_hook_calls = 0;
  int read_hook_calls = 0;
  u64 write_hook_bytes = 0;
  u64 read_hook_bytes = 0;
};

CompletionProbe probe_completions(std::shared_ptr<StorageTier> path) {
  SimClock clock(1.0);
  VirtualTier vtier;
  vtier.add_path(std::move(path));
  IoScheduler sched(clock, &vtier, {});
  CompletionProbe probe;

  const std::vector<u8> data(4096 + 17, 0x5A);
  IoRequest wr;
  wr.op = IoOp::kWrite;
  wr.key = "obj";
  wr.src = data;
  wr.sim_bytes = 2 * MiB;
  wr.path = 0;
  wr.priority = IoPriority::kLazyFlush;
  wr.on_complete = [&probe](const IoResult& r) {
    ++probe.write_hook_calls;
    probe.write_hook_bytes = r.sim_bytes;
  };
  sched.submit(std::move(wr)).get();

  std::vector<u8> back(data.size(), 0);
  IoRequest rd;
  rd.op = IoOp::kRead;
  rd.key = "obj";
  rd.dst = back;
  rd.sim_bytes = 2 * MiB;
  rd.priority = IoPriority::kDemandPrefetch;
  rd.on_complete = [&probe](const IoResult& r) {
    ++probe.read_hook_calls;
    probe.read_hook_bytes = r.sim_bytes;
  };
  sched.submit(std::move(rd)).get();
  EXPECT_EQ(back, data);

  // The transfer succeeds, the hook throws: the future fails, but the
  // request stays counted as completed.
  IoRequest bad;
  bad.op = IoOp::kWrite;
  bad.key = "obj2";
  bad.src = data;
  bad.path = 0;
  bad.priority = IoPriority::kLazyFlush;
  bad.on_complete = [](const IoResult&) {
    throw std::runtime_error("hook failed");
  };
  EXPECT_THROW(sched.submit(std::move(bad)).get(), std::runtime_error);

  sched.drain();
  probe.stats = sched.stats();
  probe.tenant0 = sched.tenant_stats(0);
  return probe;
}

TEST(IoScheduler, SyncAndAsyncCompletionsFoldIdentically) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("mlpo_io_sched_async_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  UringFileTier::Options o;
  o.force_fallback = true;
  const auto async_tier = std::make_shared<UringFileTier>("uring0", dir, o);
  ASSERT_TRUE(async_tier->supports_async());

  const CompletionProbe inline_path =
      probe_completions(std::make_shared<MemoryTier>("m0"));
  const CompletionProbe async_path = probe_completions(async_tier);
  std::filesystem::remove_all(dir);

  for (const CompletionProbe* p : {&inline_path, &async_path}) {
    EXPECT_EQ(p->write_hook_calls, 1);
    EXPECT_EQ(p->read_hook_calls, 1);
    EXPECT_EQ(p->write_hook_bytes, 2u * MiB);
    EXPECT_EQ(p->read_hook_bytes, 2u * MiB);
    const auto& flush =
        p->stats.priority[static_cast<std::size_t>(IoPriority::kLazyFlush)];
    EXPECT_EQ(flush.completed, 2u) << "a throwing hook still completes";
    EXPECT_EQ(flush.failed, 0u);
  }
  for (std::size_t pri = 0; pri < kIoPriorityCount; ++pri) {
    const auto& a = inline_path.stats.priority[pri];
    const auto& b = async_path.stats.priority[pri];
    EXPECT_EQ(a.completed, b.completed) << io_priority_name(IoPriority(pri));
    EXPECT_EQ(a.failed, b.failed) << io_priority_name(IoPriority(pri));
    EXPECT_EQ(a.sim_bytes, b.sim_bytes) << io_priority_name(IoPriority(pri));
    const auto& t = async_path.tenant0.priority[pri];
    EXPECT_EQ(t.completed, b.completed);
    EXPECT_EQ(t.failed, b.failed);
    EXPECT_EQ(t.sim_bytes, b.sim_bytes);
  }
}

// --- Tenancy: weighted fair share, scoped cancellation, fail-stop --------

// A tenant-tagged external request that records its owner into `order` at
// execution time (dispatch order is observable because each channel has
// exactly one dispatch thread).
IoRequest tenant_req(u32 tenant, IoPriority priority,
                     std::vector<u32>* order = nullptr,
                     std::mutex* mu = nullptr, u64 bytes = 8 * MiB) {
  IoRequest req;
  req.op = IoOp::kWrite;
  req.target = IoTarget::kExternal;
  req.key = "tenant-" + std::to_string(tenant);
  req.sim_bytes = bytes;
  req.priority = priority;
  req.tenant = tenant;
  req.work = [tenant, order, mu, bytes](IoChannel&) -> u64 {
    if (order != nullptr) {
      std::lock_guard lk(*mu);
      order->push_back(tenant);
    }
    return bytes;  // work reports the bytes it moved into the stats
  };
  return req;
}

TEST(IoSchedulerTenancy, WeightedFairShareOnSaturatedChannel) {
  // Weight 3 vs weight 1 on one saturated channel: the heavy tenant must
  // get ~3/4 of the early dispatches, and the light tenant must not starve.
  SimClock clock(1.0);
  IoScheduler::Config cfg;
  cfg.tenant_weights = {{1, 1}, {2, 3}};
  cfg.fair_share_quantum_bytes = 8 * MiB;  // one request per unit weight
  IoScheduler sched(clock, nullptr, cfg);

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::mutex mu;
  std::vector<u32> order;
  IoBatch batch;
  for (int i = 0; i < 8; ++i) {
    batch.add(sched.submit(
        tenant_req(1, IoPriority::kLazyFlush, &order, &mu)));
    batch.add(sched.submit(
        tenant_req(2, IoPriority::kLazyFlush, &order, &mu)));
  }
  go.set_value();
  f0.get();
  batch.wait_all();

  ASSERT_EQ(order.size(), 16u);
  const auto heavy_in_first_8 = static_cast<std::size_t>(
      std::count(order.begin(), order.begin() + 8, 2u));
  // Exact DRR phase depends on the cursor, but with quantum == request
  // size the first 8 dispatches must split ~6:2 in the heavy tenant's
  // favour while still serving the light tenant at least once.
  EXPECT_GE(heavy_in_first_8, 5u) << "heavy tenant under-served";
  EXPECT_LE(heavy_in_first_8, 7u) << "light tenant starved";

  // Per-tenant accounting saw every byte.
  const auto flush = static_cast<std::size_t>(IoPriority::kLazyFlush);
  EXPECT_EQ(sched.tenant_stats(1).priority[flush].completed, 8u);
  EXPECT_EQ(sched.tenant_stats(2).priority[flush].completed, 8u);
  EXPECT_EQ(sched.tenant_stats(2).priority[flush].sim_bytes, 8u * 8 * MiB);
}

TEST(IoSchedulerTenancy, LightTenantUrgencyServedWithinItsShare) {
  // Fairness is between tenants, urgency within one: a light tenant's
  // demand prefetch lands on the light tenant's first DRR visit, ahead of
  // most of a heavy tenant's flush backlog — not behind all of it.
  SimClock clock(1.0);
  IoScheduler::Config cfg;
  cfg.tenant_weights = {{1, 1}, {2, 4}};
  cfg.fair_share_quantum_bytes = 8 * MiB;
  IoScheduler sched(clock, nullptr, cfg);

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::mutex mu;
  std::vector<u32> order;
  IoBatch batch;
  for (int i = 0; i < 12; ++i) {
    batch.add(sched.submit(
        tenant_req(2, IoPriority::kLazyFlush, &order, &mu)));
  }
  batch.add(sched.submit(
      tenant_req(1, IoPriority::kDemandPrefetch, &order, &mu)));
  go.set_value();
  f0.get();
  batch.wait_all();

  const auto it = std::find(order.begin(), order.end(), 1u);
  ASSERT_NE(it, order.end());
  const auto position = static_cast<std::size_t>(it - order.begin());
  EXPECT_LT(position, 6u)
      << "light tenant's urgent request waited out the heavy backlog";
}

TEST(IoSchedulerTenancy, CancelTenantQueuedScopesToOneTenant) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  std::vector<std::future<void>> doomed;
  std::vector<std::future<void>> spared;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(sched.submit(tenant_req(1, IoPriority::kLazyFlush)));
    spared.push_back(sched.submit(tenant_req(2, IoPriority::kLazyFlush)));
  }
  EXPECT_EQ(sched.cancel_queued({}, 1), 3u);
  go.set_value();
  f0.get();

  for (auto& f : doomed) EXPECT_THROW(f.get(), IoCancelled);
  for (auto& f : spared) EXPECT_NO_THROW(f.get());
  const auto flush = static_cast<std::size_t>(IoPriority::kLazyFlush);
  EXPECT_EQ(sched.tenant_stats(1).priority[flush].cancelled, 3u);
  EXPECT_EQ(sched.tenant_stats(2).priority[flush].cancelled, 0u);
  EXPECT_EQ(sched.tenant_stats(2).priority[flush].completed, 3u);
}

TEST(IoSchedulerTenancy, CancelByPriorityAndTenantIsDoublyScoped) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  auto t1_demand = sched.submit(tenant_req(1, IoPriority::kDemandPrefetch));
  auto t1_flush = sched.submit(tenant_req(1, IoPriority::kLazyFlush));
  auto t2_demand = sched.submit(tenant_req(2, IoPriority::kDemandPrefetch));

  EXPECT_EQ(sched.cancel_queued(IoPriority::kDemandPrefetch, 1), 1u);
  go.set_value();
  f0.get();

  EXPECT_THROW(t1_demand.get(), IoCancelled);
  EXPECT_NO_THROW(t1_flush.get());
  EXPECT_NO_THROW(t2_demand.get());
}

TEST(IoSchedulerTenancy, FailTenantSettlesQueuedAndRejectsNewSubmits) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  auto f0 = sched.submit(blocker(go.get_future().share()));
  wait_until_drained_into_dispatch(sched, sched.external_queue());

  auto dead = sched.submit(tenant_req(1, IoPriority::kLazyFlush));
  auto live = sched.submit(tenant_req(2, IoPriority::kLazyFlush));
  sched.tenant_latch(1).kill();
  EXPECT_TRUE(sched.tenant_latch(1).dead());
  EXPECT_FALSE(sched.tenant_latch(2).dead());
  go.set_value();
  f0.get();

  EXPECT_THROW(dead.get(), FailStopError);
  EXPECT_NO_THROW(live.get());

  // Submissions while latched dead settle with the same error; the
  // neighbour keeps flowing the whole time.
  EXPECT_THROW(sched.submit(tenant_req(1, IoPriority::kLazyFlush)).get(),
               FailStopError);
  EXPECT_NO_THROW(sched.submit(tenant_req(2, IoPriority::kLazyFlush)).get());

  // Replacement hardware: revive restores service.
  sched.tenant_latch(1).revive();
  EXPECT_FALSE(sched.tenant_latch(1).dead());
  EXPECT_NO_THROW(sched.submit(tenant_req(1, IoPriority::kLazyFlush)).get());
}

TEST(IoSchedulerTenancy, ArmedDeadlineLatchesOnNextOperation) {
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  EXPECT_FALSE(sched.tenant_latch(1).dead());
  // Deadline already reached: the next query/submission latches the
  // tenant dead — the same latch a FailStopTier holds for a device.
  sched.tenant_latch(1).arm(clock.now());
  EXPECT_TRUE(sched.tenant_latch(1).dead());
  EXPECT_THROW(sched.submit(tenant_req(1, IoPriority::kLazyFlush)).get(),
               FailStopError);
  // A deadline far in the virtual future does not fire.
  sched.tenant_latch(2).arm(clock.now() + 1e9);
  EXPECT_FALSE(sched.tenant_latch(2).dead());
  EXPECT_NO_THROW(sched.submit(tenant_req(2, IoPriority::kLazyFlush)).get());
}

TEST(IoSchedulerTenancy, DrainTenantIgnoresNeighbourBacklog) {
  // Tenant 2 parks the external channel indefinitely; tenant 1's link
  // traffic completes and drain_tenant(1) returns without waiting for the
  // neighbour — one job's teardown cannot livelock behind another's I/O.
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});

  std::promise<void> go;
  std::promise<void> entered;
  IoRequest park = blocker(go.get_future().share(), &entered);
  park.tenant = 2;
  auto blocked = sched.submit(std::move(park));
  entered.get_future().wait();

  IoRequest link;
  link.op = IoOp::kWrite;
  link.target = IoTarget::kD2HLink;
  link.key = "t1-grad";
  link.sim_bytes = 1 * MiB;
  link.priority = IoPriority::kGradDeposit;
  link.tenant = 1;
  auto f1 = sched.submit(std::move(link));
  sched.drain_tenant(1);
  EXPECT_NO_THROW(f1.get());
  // The neighbour is still in flight.
  EXPECT_EQ(blocked.wait_for(0ms), std::future_status::timeout);
  go.set_value();
  sched.drain();
}

TEST(IoSchedulerTenancy, TenantZeroStatsMirrorGlobalWhenAlone) {
  // Stats are kept globally and per tenant through the same funnel: a
  // single-tenant scheduler's tenant-0 slice must equal its global view.
  SimClock clock(1.0);
  IoScheduler sched(clock, nullptr, {});
  IoBatch batch;
  batch.add(sched.submit(tenant_req(0, IoPriority::kDemandPrefetch)));
  batch.add(sched.submit(tenant_req(0, IoPriority::kLazyFlush)));
  batch.add(sched.submit(tenant_req(0, IoPriority::kLazyFlush)));
  batch.wait_all();
  sched.drain();

  const auto global = sched.stats();
  const auto slice = sched.tenant_stats(0);
  for (std::size_t p = 0; p < kIoPriorityCount; ++p) {
    EXPECT_EQ(global.priority[p].submitted, slice.priority[p].submitted);
    EXPECT_EQ(global.priority[p].completed, slice.priority[p].completed);
    EXPECT_EQ(global.priority[p].sim_bytes, slice.priority[p].sim_bytes);
    EXPECT_EQ(global.priority[p].cancelled, slice.priority[p].cancelled);
  }
  EXPECT_EQ(sched.tenant_stats(7).priority[0].submitted, 0u);
}

}  // namespace
}  // namespace mlpo
