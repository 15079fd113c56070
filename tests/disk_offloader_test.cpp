// TensorNVMe-style DiskOffloader adapter.
#include <gtest/gtest.h>

#include "core/disk_offloader.hpp"
#include "io/io_scheduler.hpp"
#include "tiers/memory_tier.hpp"
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

}  // namespace
}  // namespace mlpo
