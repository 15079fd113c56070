#include "tiers/failstop_tier.hpp"

#include <stdexcept>

namespace mlpo {

FailStopTier::FailStopTier(std::string name,
                           std::shared_ptr<StorageTier> backend,
                           const SimClock& clock)
    : name_(std::move(name)), backend_(std::move(backend)), latch_(clock) {
  if (backend_ == nullptr) {
    throw std::invalid_argument("FailStopTier: backend is required");
  }
}

std::exception_ptr FailStopTier::dead_error() const {
  if (!latch_.dead()) return nullptr;
  return std::make_exception_ptr(
      FailStopError("FailStopTier: tier '" + name_ + "' has fail-stopped"));
}

void FailStopTier::check_alive() const {
  if (auto error = dead_error()) std::rethrow_exception(error);
}

void FailStopTier::write(const std::string& key, std::span<const u8> data,
                         u64 sim_bytes) {
  check_alive();
  backend_->write(key, data, sim_bytes);
}

void FailStopTier::read(const std::string& key, std::span<u8> out,
                        u64 sim_bytes) {
  check_alive();
  backend_->read(key, out, sim_bytes);
}

bool FailStopTier::exists(const std::string& key) const {
  check_alive();
  return backend_->exists(key);
}

u64 FailStopTier::object_size(const std::string& key) const {
  check_alive();
  return backend_->object_size(key);
}

void FailStopTier::erase(const std::string& key) {
  check_alive();
  backend_->erase(key);
}

void FailStopTier::peek(const std::string& key, std::span<u8> out) {
  check_alive();
  backend_->peek(key, out);
}

void FailStopTier::write_async(const std::string& key,
                               std::span<const u8> data, u64 sim_bytes,
                               AsyncDone done) {
  if (auto error = dead_error()) return done(error);
  backend_->write_async(key, data, sim_bytes, std::move(done));
}

void FailStopTier::read_async(const std::string& key, std::span<u8> out,
                              u64 sim_bytes, AsyncDone done) {
  if (auto error = dead_error()) return done(error);
  backend_->read_async(key, out, sim_bytes, std::move(done));
}

}  // namespace mlpo
