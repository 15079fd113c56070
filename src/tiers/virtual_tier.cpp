#include "tiers/virtual_tier.hpp"

#include <algorithm>
#include <stdexcept>

#include "tiers/tier_lock.hpp"

namespace mlpo {

std::size_t VirtualTier::add_path(std::shared_ptr<StorageTier> tier,
                                  std::shared_ptr<TierLock> read_lock,
                                  std::shared_ptr<TierLock> write_lock) {
  if (!read_lock) read_lock = std::make_shared<TierLock>();
  if (!write_lock) write_lock = std::make_shared<TierLock>();
  paths_.push_back(
      Path{std::move(tier), std::move(read_lock), std::move(write_lock)});
  return paths_.size() - 1;
}

std::vector<f64> VirtualTier::path_bandwidths() const {
  std::vector<f64> bws;
  bws.reserve(paths_.size());
  for (const auto& p : paths_) {
    bws.push_back(std::min(p.tier->read_bandwidth(), p.tier->write_bandwidth()));
  }
  return bws;
}

void VirtualTier::write_to(std::size_t path_idx, const std::string& key,
                           std::span<const u8> data, u64 sim_bytes) {
  if (path_idx >= paths_.size()) {
    throw std::out_of_range("VirtualTier: bad path index");
  }
  // Determine whether the key moves between paths; stale copies are erased
  // after the new write lands so a concurrent reader never finds nothing.
  std::size_t previous = npos;
  {
    ReaderMutexLock lock(mutex_);
    const auto it = locations_.find(key);
    if (it != locations_.end()) previous = it->second;
  }

  paths_[path_idx].tier->write(key, data, sim_bytes);

  {
    WriterMutexLock lock(mutex_);
    locations_[key] = path_idx;
  }
  if (previous != npos && previous != path_idx) {
    paths_[previous].tier->erase(key);
  }
}

void VirtualTier::read(const std::string& key, std::span<u8> out,
                       u64 sim_bytes) {
  const std::size_t idx = locate(key);
  if (idx == npos) {
    throw std::out_of_range("VirtualTier: no object " + key);
  }
  paths_[idx].tier->read(key, out, sim_bytes);
}

void VirtualTier::write_to_async(std::size_t path_idx, const std::string& key,
                                 std::span<const u8> data, u64 sim_bytes,
                                 StorageTier::AsyncDone done) {
  if (path_idx >= paths_.size()) {
    done(std::make_exception_ptr(
        std::out_of_range("VirtualTier: bad path index")));
    return;
  }
  std::size_t previous = npos;
  {
    ReaderMutexLock lock(mutex_);
    const auto it = locations_.find(key);
    if (it != locations_.end()) previous = it->second;
  }
  paths_[path_idx].tier->write_async(
      key, data, sim_bytes,
      [this, path_idx, key, previous,
       done = std::move(done)](std::exception_ptr error) {
        if (!error) {
          {
            WriterMutexLock lock(mutex_);
            locations_[key] = path_idx;
          }
          // The stale copy's tier may have died meanwhile (a fail-stopped
          // PFS path): its throw fails this write, as in write_to, and
          // must not escape onto the backend's completion thread.
          if (previous != npos && previous != path_idx) {
            try {
              paths_[previous].tier->erase(key);
            } catch (...) {
              error = std::current_exception();
            }
          }
        }
        done(std::move(error));
      });
}

void VirtualTier::read_async(const std::string& key, std::span<u8> out,
                             u64 sim_bytes, StorageTier::AsyncDone done) {
  const std::size_t idx = locate(key);
  if (idx == npos) {
    done(std::make_exception_ptr(
        std::out_of_range("VirtualTier: no object " + key)));
    return;
  }
  paths_[idx].tier->read_async(key, out, sim_bytes, std::move(done));
}

void VirtualTier::peek(const std::string& key, std::span<u8> out) const {
  const std::size_t idx = locate(key);
  if (idx == npos) {
    throw std::out_of_range("VirtualTier: no object " + key);
  }
  // peek is morally const: it mutates no observable tier state.
  const_cast<StorageTier&>(*paths_[idx].tier).peek(key, out);
}

std::size_t VirtualTier::locate(const std::string& key) const {
  ReaderMutexLock lock(mutex_);
  const auto it = locations_.find(key);
  return it == locations_.end() ? npos : it->second;
}

void VirtualTier::erase(const std::string& key) {
  std::size_t idx = npos;
  {
    WriterMutexLock lock(mutex_);
    const auto it = locations_.find(key);
    if (it == locations_.end()) return;
    idx = it->second;
    locations_.erase(it);
  }
  paths_[idx].tier->erase(key);
}

}  // namespace mlpo
