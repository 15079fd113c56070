// TensorNVMe-style offloading facade (paper §3.5): "the core principles of
// MLP-Offload make it extensible to other training runtimes, such as
// TensorNVMe in Colossal-AI, by specifying multiple DiskOffloader objects
// to create the virtual third-level tier, on each of which the
// corresponding subgroups dictated by our performance model can be
// offloaded."
//
// This adapter mirrors TensorNVMe's per-tensor async API (async_write /
// async_read / synchronize) over one storage tier. TensorNvmeEngine holds
// one per virtual-tier path and places subgroups on them through its
// PlacementPolicy.
#pragma once

#include <future>
#include <span>
#include <string>

#include "io/io_batch.hpp"
#include "io/io_scheduler.hpp"
#include "tiers/storage_tier.hpp"

namespace mlpo {

class DiskOffloader {
 public:
  /// @param tier the backing storage (one path of the virtual tier)
  /// @param io shared I/O scheduler; traffic rides its external channel
  ///        (reads at demand priority, writes as lazy flushes)
  /// @param tenant id stamped on this offloader's requests (0 when the
  ///        scheduler is single-job)
  DiskOffloader(StorageTier& tier, IoScheduler& io, u32 tenant = 0)
      : tier_(&tier), io_(&io), tenant_(tenant) {}

  /// Asynchronously persist `data` under `key`. The span must stay alive
  /// until synchronize() (TensorNVMe's contract).
  std::future<void> async_write(const std::string& key,
                                std::span<const f32> data, u64 sim_bytes = 0);

  /// Asynchronously load `key` into `data` (sizes must match the write).
  ///
  /// Ordering: reads dispatch at demand priority and deterministically
  /// overtake still-queued writes on the same channel, so reading a key
  /// whose async_write has not completed yet fails (or returns the prior
  /// version). Wait on the write's future or call synchronize() first —
  /// the same contract TensorNVMe imposes.
  std::future<void> async_read(const std::string& key, std::span<f32> data,
                               u64 sim_bytes = 0);

  /// Drain every operation issued through this offloader.
  void synchronize();

  StorageTier& tier() { return *tier_; }

 private:
  StorageTier* tier_;
  IoScheduler* io_;
  u32 tenant_ = 0;
  IoBatch pending_;
};

}  // namespace mlpo
