// Fail-stop state — the one latch behind every injected node, device or
// tenant loss — and the wrapper tier that puts it in front of a device.
//
// A FailStopLatch halts either explicitly (kill()) or by a deterministic
// SimClock deadline (arm()): once the virtual clock passes the armed time
// the next dead() query latches it, and it stays dead until revive(). The
// latch makes virtual-time schedules reproducible — a device does not
// flicker back to life because a later request raced the clock — and it
// keeps the earliest of several armed deadlines. Two owners hold latches:
//   * FailStopTier wraps any StorageTier and forwards every operation,
//     sync or async, until its latch is dead; then each one fails with
//     FailStopError. Owned nodes (NodeConfig::wrap_failstop) put one in
//     front of every storage path.
//   * IoScheduler keeps one latch per tenant (tenant_latch()), so a
//     JobManager job on a shared substrate fail-stops alone while its
//     neighbours keep flowing.
// NodeSim takes one latch per virtual-tier path from whichever owner it
// has, and the FailureInjector kills and arms those through it; ClusterSim
// classifies FailStopError escaping a node as a NodeFailure so the
// RecoveryDriver can distinguish injected fail-stops from genuine bugs.
#pragma once

#include <atomic>
#include <memory>
#include <stdexcept>

#include "tiers/storage_tier.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {

/// Thrown by every operation on a fail-stopped tier or tenant.
class FailStopError : public std::runtime_error {
 public:
  explicit FailStopError(const std::string& what) : std::runtime_error(what) {}
};

/// Lock-free fail-stop state of one device or tenant.
class FailStopLatch {
 public:
  explicit FailStopLatch(const SimClock& clock) : clock_(&clock) {}

  /// Fail-stop immediately (the injector's iteration-driven kill).
  void kill() { dead_.store(true, std::memory_order_release); }

  /// Deterministic SimClock-driven fail-stop: the first dead() at or after
  /// `kill_at_vtime` latches. Arming twice keeps the EARLIEST pending
  /// deadline — overlapping schedules (a path event and a whole-node event
  /// on the same hardware, or two node events on one job) must not
  /// postpone each other.
  void arm(f64 kill_at_vtime) {
    f64 current = arm_at_.load(std::memory_order_acquire);
    while ((current < 0 || kill_at_vtime < current) &&
           !arm_at_.compare_exchange_weak(current, kill_at_vtime,
                                          std::memory_order_acq_rel)) {
    }
  }

  /// Clear the latch and any pending deadline: replacement hardware (or a
  /// rebuilt job's tenant) came up.
  void revive() {
    arm_at_.store(-1.0, std::memory_order_release);
    dead_.store(false, std::memory_order_release);
  }

  /// True once fail-stopped; an expired deadline latches here.
  bool dead() const {
    if (dead_.load(std::memory_order_acquire)) return true;
    const f64 arm_at = arm_at_.load(std::memory_order_acquire);
    if (arm_at >= 0 && clock_->now() >= arm_at) {
      dead_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

 private:
  const SimClock* clock_;
  mutable std::atomic<bool> dead_{false};
  std::atomic<f64> arm_at_{-1.0};  ///< < 0 means unarmed
};

class FailStopTier final : public StorageTier {
 public:
  FailStopTier(std::string name, std::shared_ptr<StorageTier> backend,
               const SimClock& clock);

  /// This device's fail-stop state; kill or arm it to fail the tier.
  FailStopLatch& latch() { return latch_; }

  const std::string& name() const override { return name_; }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes) override;
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes) override;
  bool exists(const std::string& key) const override;
  u64 object_size(const std::string& key) const override;
  void erase(const std::string& key) override;
  void peek(const std::string& key, std::span<u8> out) override;
  f64 read_bandwidth() const override { return backend_->read_bandwidth(); }
  f64 write_bandwidth() const override { return backend_->write_bandwidth(); }
  bool persistent() const override { return backend_->persistent(); }
  /// Async operations forward too, so wrapping a device never demotes it
  /// to inline completion; a dead tier fails them through `done`.
  bool supports_async() const override { return backend_->supports_async(); }
  void write_async(const std::string& key, std::span<const u8> data,
                   u64 sim_bytes, AsyncDone done) override;
  void read_async(const std::string& key, std::span<u8> out, u64 sim_bytes,
                  AsyncDone done) override;

 private:
  /// FailStopError for an operation on a dead tier, or null while alive.
  std::exception_ptr dead_error() const;
  void check_alive() const;

  std::string name_;
  std::shared_ptr<StorageTier> backend_;
  FailStopLatch latch_;
};

}  // namespace mlpo
