// Virtual multi-path tier (paper §3.2, "unified multi-level, multi-path
// asynchronous offloading using virtual tiers").
//
// Unifies N alternative storages (node-local NVMe, PFS paths, object store
// buckets) behind one tier-like interface. Writers choose a path explicitly
// (the performance model decides placement); reads route automatically via
// a key -> path location map. Each path carries a node-level TierLock so
// the engine can apply process-exclusive concurrency control per path.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "tiers/storage_tier.hpp"
#include "util/mutex.hpp"

namespace mlpo {

class TierLock;

class VirtualTier {
 public:
  struct Path {
    std::shared_ptr<StorageTier> tier;
    /// Node-level per-direction locks; shared between all VirtualTier
    /// instances of the workers on one node (they alias the same Path
    /// objects). Exclusivity is per channel direction: a worker owning the
    /// read channel of a path does not block another worker's writes, so
    /// the device's duplex capability stays usable while each direction
    /// serves exactly one worker at full bandwidth (paper §3.2's exclusive
    /// access, refined to channel granularity).
    std::shared_ptr<TierLock> read_lock;
    std::shared_ptr<TierLock> write_lock;
  };

  VirtualTier() = default;
  explicit VirtualTier(std::vector<Path> paths) : paths_(std::move(paths)) {}

  /// Add an alternative storage; returns its path index.
  std::size_t add_path(std::shared_ptr<StorageTier> tier,
                       std::shared_ptr<TierLock> read_lock = nullptr,
                       std::shared_ptr<TierLock> write_lock = nullptr);

  std::size_t path_count() const { return paths_.size(); }
  StorageTier& path(std::size_t idx) { return *paths_.at(idx).tier; }
  const StorageTier& path(std::size_t idx) const { return *paths_.at(idx).tier; }
  TierLock* path_read_lock(std::size_t idx) {
    return paths_.at(idx).read_lock.get();
  }
  TierLock* path_write_lock(std::size_t idx) {
    return paths_.at(idx).write_lock.get();
  }

  /// Bandwidth vector <B_i> the performance model consumes; each entry is
  /// min(read_bw, write_bw) of the path, per paper §3.3.
  std::vector<f64> path_bandwidths() const;

  /// Write `data` under `key` on path `path_idx`, updating the location map
  /// (the object is erased from its previous path if it moved).
  void write_to(std::size_t path_idx, const std::string& key,
                std::span<const u8> data, u64 sim_bytes = 0);

  /// Read `key` from whichever path holds it. Throws std::out_of_range if
  /// the key is unknown.
  void read(const std::string& key, std::span<u8> out, u64 sim_bytes = 0);

  /// True when path `idx`'s backend completes transfers on real device
  /// events (StorageTier::supports_async).
  bool path_supports_async(std::size_t idx) const {
    return paths_.at(idx).tier->supports_async();
  }

  /// Async variants of write_to/read: the transfer runs on the backend's
  /// completion engine and `done` fires from its thread. Location-map
  /// bookkeeping happens in the completion shim, after the bytes landed, so
  /// readers never observe a location whose object is still in flight.
  void write_to_async(std::size_t path_idx, const std::string& key,
                      std::span<const u8> data, u64 sim_bytes,
                      StorageTier::AsyncDone done);
  void read_async(const std::string& key, std::span<u8> out, u64 sim_bytes,
                  StorageTier::AsyncDone done);

  /// Untimed inspection read (no throttling, no stats). See
  /// StorageTier::peek.
  void peek(const std::string& key, std::span<u8> out) const;

  /// Path index currently holding `key`, or npos.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t locate(const std::string& key) const;

  bool exists(const std::string& key) const { return locate(key) != npos; }
  void erase(const std::string& key);

 private:
  /// paths_ is append-only during setup and immutable once I/O starts, so
  /// it is deliberately not guarded; locations_ is the hot shared map.
  std::vector<Path> paths_;
  mutable SharedMutex mutex_;
  /// Key -> index of the path holding it.
  std::unordered_map<std::string, std::size_t> locations_
      MLPO_GUARDED_BY(mutex_);
};

}  // namespace mlpo
