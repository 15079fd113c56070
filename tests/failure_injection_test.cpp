// Failure injection: storage errors must propagate through the async
// pipeline as exceptions without deadlocking or corrupting the engine.
#include <gtest/gtest.h>

#include <atomic>

#include "core/offload_engine.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo {
namespace {

// Wrapper that fails selected operations after a countdown.
class FlakyTier : public StorageTier {
 public:
  explicit FlakyTier(std::string name)
      : name_(std::move(name)), backend_(name_ + "/backend") {}

  std::atomic<int> fail_reads_after{-1};   // -1 = never fail
  std::atomic<int> fail_writes_after{-1};

  const std::string& name() const override { return name_; }

  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes) override {
    if (countdown(fail_writes_after)) {
      throw std::runtime_error("FlakyTier: injected write failure");
    }
    backend_.write(key, data, sim_bytes);
  }

  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes) override {
    if (countdown(fail_reads_after)) {
      throw std::runtime_error("FlakyTier: injected read failure");
    }
    backend_.read(key, out, sim_bytes);
  }

  bool exists(const std::string& key) const override {
    return backend_.exists(key);
  }
  u64 object_size(const std::string& key) const override {
    return backend_.object_size(key);
  }
  void erase(const std::string& key) override { backend_.erase(key); }
  void peek(const std::string& key, std::span<u8> out) override {
    backend_.peek(key, out);
  }
  f64 read_bandwidth() const override { return 1e9; }
  f64 write_bandwidth() const override { return 1e9; }

 private:
  static bool countdown(std::atomic<int>& counter) {
    int value = counter.load();
    while (value >= 0) {
      if (counter.compare_exchange_weak(value, value - 1)) {
        return value == 0;
      }
    }
    return false;
  }

  std::string name_;
  MemoryTier backend_;
};

struct Rig {
  SimClock clock{50000.0};
  VirtualTier vtier;
  GradSource grads;
  std::shared_ptr<FlakyTier> flaky = std::make_shared<FlakyTier>("flaky");
  std::unique_ptr<IoScheduler> io;

  Rig() {
    vtier.add_path(flaky);
    io = std::make_unique<IoScheduler>(clock, &vtier, IoScheduler::Config{});
  }

  std::unique_ptr<OffloadEngine> make_engine(bool delayed_grads = true) {
    EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = io.get();
    ctx.grads = &grads;
    EngineOptions opts = EngineOptions::mlp_offload();
    opts.multipath = false;  // single (flaky) path
    opts.delayed_grad_conversion = delayed_grads;
    opts.cpu_update_rate = 1e9;
    opts.convert.fp32_bytes_per_sec = 1e12;
    opts.host_cache_subgroups = 2;
    opts.elem_scale = 1;
    return std::make_unique<OffloadEngine>(
        ctx, opts, make_shard_layout(1024 * 6, 1, 0, 1024));
  }
};

TEST(FailureInjection, InitializeSurfacesWriteFailure) {
  Rig rig;
  auto engine = rig.make_engine();
  rig.flaky->fail_writes_after = 2;
  EXPECT_THROW(engine->initialize(), std::runtime_error);
}

TEST(FailureInjection, FetchFailurePropagatesFromRunUpdate) {
  Rig rig;
  auto engine = rig.make_engine();
  engine->initialize();
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  rig.flaky->fail_reads_after = 1;
  EXPECT_THROW(engine->run_update(0), std::runtime_error);
  // Engine object remains destructible and queryable after the failure
  // (no deadlock, no dangling tasks).
  EXPECT_EQ(engine->num_subgroups(), 6u);
}

TEST(FailureInjection, FlushFailurePropagatesFromRunUpdate) {
  Rig rig;
  auto engine = rig.make_engine();
  engine->initialize();
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  rig.flaky->fail_writes_after = 1;
  EXPECT_THROW(engine->run_update(0), std::runtime_error);
}

TEST(FailureInjection, BaselineGradFlushFailureSurfacesInWait) {
  Rig rig;
  auto engine = rig.make_engine(/*delayed_grads=*/false);
  engine->initialize();
  rig.flaky->fail_writes_after = 1;  // grad flushes during backward
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  EXPECT_THROW(engine->wait_gradient_io(), std::runtime_error);
}

TEST(FailureInjection, RecoveryAfterTransientFailure) {
  Rig rig;
  auto engine = rig.make_engine();
  engine->initialize();
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  rig.flaky->fail_reads_after = 0;  // fail exactly the first fetch
  EXPECT_THROW(engine->run_update(0), std::runtime_error);

  // The failed iteration left some subgroups un-updated; a retry with the
  // fault cleared must complete.
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  const auto report = engine->run_update(0);
  EXPECT_EQ(report.subgroups_processed, 6u);
}

TEST(FailureInjection, MissingSubgroupObjectIsLoudNotSilent) {
  Rig rig;
  auto engine = rig.make_engine();
  engine->initialize();
  rig.flaky->erase(Subgroup::key(0, 3));
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  EXPECT_THROW(engine->run_update(0), std::exception);
}

}  // namespace
}  // namespace mlpo
