#include "runtime/cluster_substrate.hpp"

#include <algorithm>

namespace mlpo {

ClusterSubstrate::ClusterSubstrate(f64 time_scale)
    : clock_(std::make_unique<SimClock>(time_scale)) {}

ClusterSubstrate::ClusterSubstrate(f64 time_scale, const SharedConfig& shared)
    : clock_(std::make_unique<SimClock>(time_scale)), shared_cfg_(shared) {
  shared_cfg_.storage.validate();

  // The shared world mirrors what one NodeSim builds for itself, except
  // there is exactly one of everything: one NVMe backend, one virtual
  // tier, one scheduler every job's traffic flows through.
  nvme_ = make_nvme_backend(shared_cfg_.storage, shared_cfg_.testbed, *clock_,
                            "nvme", "shared");
  vtier_ = std::make_unique<VirtualTier>();
  vtier_->add_path(nvme_);
  if (shared_cfg_.attach_pfs) {
    pfs_client_ = shared_cfg_.testbed.make_pfs_tier(
        *clock_, "pfs", acquire_pfs_fabric(shared_cfg_.testbed));
    vtier_->add_path(pfs_client_);
  }

  cpu_pool_ = std::make_unique<ThreadPool>(
      std::min<u32>(shared_cfg_.testbed.cpu_cores, 8));

  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = shared_cfg_.io_queue_depth;
  io_cfg.tier_exclusive_locking = shared_cfg_.tier_exclusive_locking;
  io_cfg.worker_id = 0;
  io_cfg.tenant_weights = shared_cfg_.tenant_weights;
  io_cfg.fair_share_quantum_bytes = shared_cfg_.fair_share_quantum_bytes;
  // There is no per-worker link when every job shares one substrate: the
  // scheduler's D2H/H2D pair serves them all.
  io_cfg.link_bandwidth = shared_cfg_.testbed.d2h_bandwidth;
  io_ = std::make_unique<IoScheduler>(*clock_, vtier_.get(), io_cfg);

  {
    MutexLock lock(mutex_);
    // Jobs meter their own gradient reserves through reserve_host, so the
    // substrate budget carves out only the runtime base (cf.
    // host_cache_budget_bytes, which folds one model's reserve in).
    const u64 runtime_base = 280 * GiB;
    host_budget_ = shared_cfg_.testbed.host_memory_bytes > runtime_base
        ? shared_cfg_.testbed.host_memory_bytes - runtime_base
        : 0;
  }
}

ClusterSubstrate::~ClusterSubstrate() = default;

std::shared_ptr<StorageTier> ClusterSubstrate::acquire_pfs_fabric(
    const TestbedSpec& testbed) {
  MutexLock lock(mutex_);
  if (!pfs_fabric_) {
    pfs_fabric_ = testbed.make_pfs_fabric(*clock_, "pfs-fabric");
  }
  return pfs_fabric_;
}

VirtualTier& ClusterSubstrate::vtier() {
  if (!vtier_) {
    throw std::logic_error(
        "ClusterSubstrate::vtier: substrate is in owned (single-job) mode — "
        "construct with a SharedConfig for shared resources");
  }
  return *vtier_;
}

IoScheduler& ClusterSubstrate::io() {
  if (!io_) {
    throw std::logic_error(
        "ClusterSubstrate::io: substrate is in owned (single-job) mode — "
        "construct with a SharedConfig for shared resources");
  }
  return *io_;
}

ThreadPool* ClusterSubstrate::cpu_pool() {
  if (!cpu_pool_) {
    throw std::logic_error(
        "ClusterSubstrate::cpu_pool: substrate is in owned (single-job) mode "
        "— construct with a SharedConfig for shared resources");
  }
  return cpu_pool_.get();
}

const ClusterSubstrate::SharedConfig& ClusterSubstrate::shared_config() const {
  if (!io_) {
    throw std::logic_error(
        "ClusterSubstrate::shared_config: substrate is in owned mode");
  }
  return shared_cfg_;
}

u64 ClusterSubstrate::host_budget_bytes() const {
  MutexLock lock(mutex_);
  return host_budget_;
}

u64 ClusterSubstrate::host_reserved_bytes() const {
  MutexLock lock(mutex_);
  return host_reserved_;
}

void ClusterSubstrate::reserve_host(const std::string& job_name, u64 bytes) {
  MutexLock lock(mutex_);
  if (host_reservations_.count(job_name) != 0) {
    throw std::logic_error("ClusterSubstrate::reserve_host: job '" + job_name +
                           "' already holds a reservation");
  }
  if (bytes > host_budget_ - host_reserved_ || host_reserved_ > host_budget_) {
    throw AdmissionError(
        "admission rejected: job '" + job_name + "' needs " +
        std::to_string(bytes) + " host bytes but only " +
        std::to_string(host_budget_ - std::min(host_reserved_, host_budget_)) +
        " of " + std::to_string(host_budget_) + " remain (" +
        std::to_string(host_reserved_) +
        " reserved by earlier jobs); shrink the model/cache or lower the "
        "job count");
  }
  host_reservations_[job_name] = bytes;
  host_reserved_ += bytes;
}

void ClusterSubstrate::release_host(const std::string& job_name) {
  MutexLock lock(mutex_);
  auto it = host_reservations_.find(job_name);
  if (it == host_reservations_.end()) return;
  host_reserved_ -= it->second;
  host_reservations_.erase(it);
}

}  // namespace mlpo
