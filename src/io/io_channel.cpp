#include "io/io_channel.hpp"

#include <stdexcept>

#include "tiers/tier_lock.hpp"
#include "util/rate_limiter.hpp"

namespace mlpo {

class IoChannel::Lease {
 public:
  Lease() = default;
  explicit Lease(TierLock::Guard guard) : guard_(std::move(guard)) {}

 private:
  TierLock::Guard guard_;
};

IoChannel::IoChannel(VirtualTier& vtier, std::size_t path_idx, IoOp op,
                     bool exclusive, int worker_id)
    : name_(vtier.path(path_idx).name() +
            (op == IoOp::kRead ? "/read" : "/write")),
      vtier_(&vtier), path_idx_(path_idx), op_(op), exclusive_(exclusive),
      worker_id_(worker_id) {}

IoChannel::IoChannel(std::string name, RateLimiter* limiter)
    : name_(std::move(name)), limiter_(limiter) {}

IoChannel::IoChannel(std::string name) : name_(std::move(name)) {}

std::shared_ptr<IoChannel::Lease> IoChannel::lease() {
  if (vtier_ == nullptr || !exclusive_) return std::make_shared<Lease>();
  TierLock* lock = op_ == IoOp::kRead ? vtier_->path_read_lock(path_idx_)
                                      : vtier_->path_write_lock(path_idx_);
  if (lock == nullptr) return std::make_shared<Lease>();
  return std::make_shared<Lease>(lock->lock(worker_id_));
}

void IoChannel::read(const std::string& key, std::span<u8> out,
                     u64 sim_bytes) {
  if (vtier_ == nullptr) {
    throw std::logic_error("IoChannel(" + name_ + "): read on non-tier channel");
  }
  vtier_->read(key, out, sim_bytes);
}

void IoChannel::write(const std::string& key, std::span<const u8> data,
                      u64 sim_bytes) {
  if (vtier_ == nullptr) {
    throw std::logic_error("IoChannel(" + name_ +
                           "): write on non-tier channel");
  }
  vtier_->write_to(path_idx_, key, data, sim_bytes);
}

bool IoChannel::async_capable(const std::string& key) const {
  if (vtier_ == nullptr) return false;
  if (op_ == IoOp::kWrite) return vtier_->path_supports_async(path_idx_);
  const std::size_t loc = vtier_->locate(key);
  return loc != VirtualTier::npos && vtier_->path_supports_async(loc);
}

void IoChannel::read_async(const std::string& key, std::span<u8> out,
                           u64 sim_bytes, StorageTier::AsyncDone done) {
  if (vtier_ == nullptr) {
    throw std::logic_error("IoChannel(" + name_ +
                           "): read_async on non-tier channel");
  }
  vtier_->read_async(key, out, sim_bytes, std::move(done));
}

void IoChannel::write_async(const std::string& key, std::span<const u8> data,
                            u64 sim_bytes, StorageTier::AsyncDone done) {
  if (vtier_ == nullptr) {
    throw std::logic_error("IoChannel(" + name_ +
                           "): write_async on non-tier channel");
  }
  vtier_->write_to_async(path_idx_, key, data, sim_bytes, std::move(done));
}

void IoChannel::erase(const std::string& key) {
  if (vtier_ == nullptr) {
    throw std::logic_error("IoChannel(" + name_ +
                           "): erase on non-tier channel");
  }
  vtier_->erase(key);
}

void IoChannel::transfer(u64 sim_bytes) {
  if (limiter_ != nullptr) limiter_->acquire(sim_bytes);
}

}  // namespace mlpo
