// Bandwidth/latency emulation wrapper: turns any backend into a device with
// the read/write throughput of a real NVMe or PFS endpoint (Table 1 of the
// paper).
//
// Model:
//   * independent read and write channels (full-duplex, like NVMe queues and
//     PFS network paths), each a FIFO RateLimiter;
//   * fixed per-request setup latency (seek/RPC cost);
//   * transfers split into chunks before entering the channel, so concurrent
//     requests interleave at chunk granularity — aggregate throughput stays
//     at the channel rate while per-request latency grows with queue depth,
//     reproducing the paper's Fig. 4 contention measurements.
#pragma once

#include <memory>

#include "tiers/storage_tier.hpp"
#include "util/rate_limiter.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {

struct ThrottleSpec {
  f64 read_bw;               ///< bytes per virtual second
  f64 write_bw;              ///< bytes per virtual second
  f64 request_latency = 0.0; ///< virtual seconds added per request
  u64 chunk_bytes = 64 * MiB;///< interleave granularity on the channel

  /// Fractional slowdown of a direction while the opposite direction is
  /// simultaneously active (controller/PCIe duplex interference). The paper
  /// observes DeepSpeed's mixed read+write update traffic sustaining only
  /// ~3.2 GB/s against a 5.3 GB/s device (Fig. 9); 0 disables the effect.
  f64 duplex_penalty = 0.0;

  /// Fractional slowdown per *additional* concurrent request beyond the
  /// first (multi-process contention on the storage subsystem, §3.1). The
  /// tier-exclusive concurrency control of MLP-Offload exists precisely to
  /// keep this factor at zero.
  f64 multi_actor_penalty = 0.0;
};

class ThrottledTier : public StorageTier {
 public:
  /// @param backend storage that actually holds the bytes. Shared so several
  ///        logical tiers may aliase one backing store if desired.
  ThrottledTier(std::string name, std::shared_ptr<StorageTier> backend,
                const SimClock& clock, const ThrottleSpec& spec,
                bool persistent = false);

  const std::string& name() const override { return name_; }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes = 0) override;
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes = 0) override;
  bool exists(const std::string& key) const override;
  u64 object_size(const std::string& key) const override;
  void erase(const std::string& key) override;
  void peek(const std::string& key, std::span<u8> out) override {
    backend_->peek(key, out);
  }
  f64 read_bandwidth() const override { return read_channel_.rate(); }
  f64 write_bandwidth() const override { return write_channel_.rate(); }
  bool persistent() const override { return persistent_; }

  /// Live-adjust channel rates (models PFS interference from other jobs; the
  /// adaptive performance model reacts to this, paper §3.3).
  void set_read_bandwidth(f64 bw) { read_channel_.set_rate(bw); }
  void set_write_bandwidth(f64 bw) { write_channel_.set_rate(bw); }

  StorageTier& backend() { return *backend_; }

 private:
  /// Pass sim_bytes through `channel` in chunks; returns elapsed vseconds.
  /// `self_inflight`/`other_inflight` select the direction counters so the
  /// contention multipliers can be computed per chunk.
  f64 throttle(RateLimiter& channel, u64 sim_bytes,
               std::atomic<u32>& self_inflight,
               const std::atomic<u32>& other_inflight);

  std::string name_;
  std::shared_ptr<StorageTier> backend_;
  const SimClock* clock_;
  RateLimiter read_channel_;
  RateLimiter write_channel_;
  f64 request_latency_;
  u64 chunk_bytes_;
  f64 duplex_penalty_;
  f64 multi_actor_penalty_;
  bool persistent_;
  std::atomic<u32> inflight_reads_{0};
  std::atomic<u32> inflight_writes_{0};
};

}  // namespace mlpo
