// TensorNVMe-style DiskOffloader adapter, and the TensorNvmeEngine's
// failure path over one offloader per path.
#include <gtest/gtest.h>

#include "core/disk_offloader.hpp"
#include "core/engine.hpp"
#include "io/io_scheduler.hpp"
#include "policy/policy_registry.hpp"
#include "tiers/failstop_tier.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"
#include "tiers/virtual_tier.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {
namespace {

TEST(DiskOffloader, AsyncWriteReadRoundtrip) {
  MemoryTier tier("disk");
  SimClock clock(1.0);
  IoScheduler io(clock, nullptr, {});
  DiskOffloader offloader(tier, io);

  std::vector<f32> tensor(256);
  for (std::size_t i = 0; i < tensor.size(); ++i) {
    tensor[i] = static_cast<f32>(i) * 0.5f;
  }
  offloader.async_write("t0", tensor).get();

  std::vector<f32> loaded(256);
  offloader.async_read("t0", loaded).get();
  EXPECT_EQ(loaded, tensor);
}

TEST(DiskOffloader, SynchronizeDrainsEverything) {
  MemoryTier tier("disk");
  SimClock clock(1.0);
  IoScheduler io(clock, nullptr, {});
  DiskOffloader offloader(tier, io);

  std::vector<std::vector<f32>> tensors(16, std::vector<f32>(64, 1.5f));
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    offloader.async_write("t" + std::to_string(i), tensors[i]);
  }
  offloader.synchronize();
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    EXPECT_TRUE(tier.exists("t" + std::to_string(i))) << i;
  }
}

TEST(DiskOffloader, ErrorsSurfaceOnSynchronize) {
  MemoryTier tier("disk");
  SimClock clock(1.0);
  IoScheduler io(clock, nullptr, {});
  DiskOffloader offloader(tier, io);
  std::vector<f32> out(8);
  offloader.async_read("missing", out);  // will fail
  EXPECT_THROW(offloader.synchronize(), std::out_of_range);
}

TEST(DiskOffloader, EndToEndVirtualTierRecipe) {
  // One offloader per path of a two-path virtual tier: write every tensor
  // through the path it is placed on, read them all back.
  MemoryTier fast("nvme", 6e9, 6e9);
  MemoryTier slow("pfs", 3e9, 3e9);
  SimClock clock(1.0);
  IoScheduler io(clock, nullptr, {});
  DiskOffloader off_fast(fast, io);
  DiskOffloader off_slow(slow, io);
  std::vector<DiskOffloader*> offs = {&off_fast, &off_slow};

  constexpr std::size_t kTensors = 12;
  const std::vector<std::size_t> placement = {0, 0, 1, 0, 0, 1,
                                              0, 0, 1, 0, 0, 1};
  std::vector<std::vector<f32>> tensors(kTensors);
  for (std::size_t i = 0; i < kTensors; ++i) {
    tensors[i].assign(32, static_cast<f32>(i));
    offs[placement[i]]->async_write("t" + std::to_string(i), tensors[i]);
  }
  off_fast.synchronize();
  off_slow.synchronize();

  for (std::size_t i = 0; i < kTensors; ++i) {
    std::vector<f32> out(32);
    offs[placement[i]]->async_read("t" + std::to_string(i), out).get();
    EXPECT_EQ(out, tensors[i]) << i;
  }
}

// Odd ids first, then even ones: under round_robin placement every
// subgroup on path 1 is updated before the first one on path 0.
class OddIdsFirst final : public UpdateOrderPolicy {
 public:
  const std::string& name() const override {
    static const std::string n = "test_odd_ids_first";
    return n;
  }
  bool uses_host_cache() const override { return false; }
  std::vector<u32> order(u32 n, u64, std::span<const u32>) const override {
    std::vector<u32> o;
    for (u32 id = 1; id < n; id += 2) o.push_back(id);
    for (u32 id = 0; id < n; id += 2) o.push_back(id);
    return o;
  }
};

// A TensorNvmeEngine whose path 0 fail-stops after initialize while path 1
// writes slowly: run_update writes the path-1 subgroups back, then its
// read of the first path-0 subgroup throws with those writes in flight.
// The writes read the subgroups' images straight out of the engine.
struct FailingPathRig {
  SimClock clock{20.0};
  std::shared_ptr<FailStopTier> nvme;
  VirtualTier vtier;
  GradSource grads;
  std::unique_ptr<IoScheduler> io;
  std::unique_ptr<Engine> engine;

  FailingPathRig() {
    nvme = std::make_shared<FailStopTier>(
        "nvme", std::make_shared<MemoryTier>("nvme-back"), clock);
    vtier.add_path(nvme);
    ThrottleSpec slow_writes{/*read_bw=*/1e9, /*write_bw=*/2e5};
    slow_writes.chunk_bytes = 4 * KiB;
    vtier.add_path(std::make_shared<ThrottledTier>(
        "pfs", std::make_shared<MemoryTier>("pfs-back"), clock, slow_writes,
        /*persistent=*/true));
    io = std::make_unique<IoScheduler>(clock, &vtier, IoScheduler::Config{});
    register_update_order_policy(
        "test_odd_ids_first", [] { return std::make_unique<OddIdsFirst>(); });
    EngineOptions opts = EngineOptions::preset("tensor_nvme");
    opts.placement_policy = "round_robin";
    opts.update_order_policy = "test_odd_ids_first";
    opts.cpu_update_rate = 1e12;
    opts.convert.fp32_bytes_per_sec = 1e15;
    EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = io.get();
    ctx.grads = &grads;
    engine = make_engine(ctx, opts, make_shard_layout(8 * 4096, 1, 0, 4096));
    engine->initialize();
    nvme->latch().kill();
    for (u32 id = 0; id < engine->num_subgroups(); ++id) {
      engine->deposit_gradients_async(0, id, true, true);
    }
    engine->wait_gradient_io();
  }
};

TEST(TensorNvmeEngine, FailedUpdateSettlesEveryWriteBeforeItThrows) {
  FailingPathRig rig;
  EXPECT_THROW(rig.engine->run_update(0), FailStopError);
  // Path 1's write-backs have settled: destroying the engine unmaps the
  // images they read, and the scheduler, destroyed after it, would still
  // dispatch them.
  const IoScheduler::PriorityStats writes = rig.io->stats().priority[
      static_cast<std::size_t>(IoPriority::kLazyFlush)];
  EXPECT_GT(writes.completed, 0u);
  EXPECT_EQ(writes.completed + writes.failed + writes.cancelled,
            writes.submitted);
  rig.engine.reset();
  rig.io.reset();
}

TEST(TensorNvmeEngine, FailedUpdateLeavesNoStaleFailureForRestore) {
  FailingPathRig rig;
  EXPECT_THROW(rig.engine->run_update(0), FailStopError);
  rig.nvme->latch().revive();
  // Subgroup 0 lives on path 0, whose offloader saw the failed read. A
  // restore there must report only its own write.
  const Subgroup sg = rig.engine->snapshot_subgroup(0);
  std::vector<u8> image(sg.serialized_bytes());
  sg.serialize(image);
  EXPECT_NO_THROW(rig.engine->restore_state(0, image));
}

}  // namespace
}  // namespace mlpo
