// Per-path, per-direction I/O channel.
//
// An IoChannel is the only object in the system that touches a TierLock or
// a link RateLimiter: producers (OffloadEngine, DiskOffloader, Checkpoint)
// describe traffic as IoRequests and the scheduler dispatches them on the
// right channel with the right lock held. Three flavours:
//
//   * tier channel   — one direction (read or write) of one VirtualTier
//     path. Owns the use of that direction's node-level TierLock; when
//     process-exclusive locking is enabled, the scheduler holds a Lease
//     across each dispatched request, which is exactly the paper's §3.2
//     "process-exclusive, thread-shared" concurrency control.
//   * link channel   — a PCIe-style point-to-point link (D2H or H2D)
//     modelled by a RateLimiter. A null limiter means instantaneous.
//   * external channel — carrier for traffic to tiers outside the virtual
//     tier (checkpoint stores, DiskOffloader backends); requests name
//     their own StorageTier.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "io/io_request.hpp"
#include "tiers/virtual_tier.hpp"

namespace mlpo {

class RateLimiter;

class IoChannel {
 public:
  /// Tier channel: direction `op` of `vtier`'s path `path_idx`.
  /// @param exclusive take the path's direction TierLock for each lease
  /// @param worker_id lock ownership key (node-local worker id)
  IoChannel(VirtualTier& vtier, std::size_t path_idx, IoOp op, bool exclusive,
            int worker_id);

  /// Link channel over `limiter` (nullable => instantaneous link).
  IoChannel(std::string name, RateLimiter* limiter);

  /// External channel (no vtier, no lock; requests carry their tier).
  explicit IoChannel(std::string name);

  const std::string& name() const { return name_; }
  bool is_tier_channel() const { return vtier_ != nullptr; }
  std::size_t path_index() const { return path_idx_; }

  /// Dispatch-scope lock share, defined in io_channel.cpp so the lock type
  /// stays out of this header. Empty for link/external channels or when
  /// exclusive locking is disabled.
  class Lease;

  /// Acquire this channel's direction lock (blocking; re-entrant for the
  /// owning worker); never null. The lock is released when the last
  /// holder drops it. The scheduler takes one lease per dispatched
  /// request; an async completion holds it until the transfer lands.
  std::shared_ptr<Lease> lease();

  // --- Tier-channel operations (call only from a dispatch context) ------

  /// Keyed read, routed through the VirtualTier to whichever path holds
  /// `key` (matching the engine's historical fetch behaviour: the state
  /// path's lock covers companion reads such as baseline FP32 gradients).
  void read(const std::string& key, std::span<u8> out, u64 sim_bytes = 0);

  /// Keyed write onto THIS channel's path (placement is the caller's
  /// decision via the request's path hint).
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes = 0);

  void erase(const std::string& key);

  /// Would a transfer of `key` in this channel's direction settle on real
  /// backend completion events (StorageTier::supports_async)? Write
  /// channels ask their own path; reads resolve the key's current
  /// location, mirroring read()'s routing.
  bool async_capable(const std::string& key) const;

  /// Async counterparts of read()/write(): the backend moves the bytes and
  /// `done` fires from its completion thread. Only meaningful when
  /// async_capable() — sync backends would degrade to inline completion.
  void read_async(const std::string& key, std::span<u8> out, u64 sim_bytes,
                  StorageTier::AsyncDone done);
  void write_async(const std::string& key, std::span<const u8> data,
                   u64 sim_bytes, StorageTier::AsyncDone done);

  // --- Link-channel operation -------------------------------------------

  /// Pass `sim_bytes` through the link, blocking for the modelled transfer
  /// time. No-op for a null limiter.
  void transfer(u64 sim_bytes);

 private:
  std::string name_;
  VirtualTier* vtier_ = nullptr;
  std::size_t path_idx_ = IoRequest::kAutoPath;
  IoOp op_ = IoOp::kRead;
  bool exclusive_ = false;
  int worker_id_ = 0;
  RateLimiter* limiter_ = nullptr;
};

}  // namespace mlpo
