// Public facade: configure a training scenario (model, testbed, engine
// flags, scale) and run instrumented iterations. This is the API the
// examples and benchmark harnesses use; everything below it is reachable
// for advanced composition.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "resilience/failure_injector.hpp"
#include "runtime/cluster.hpp"
#include "runtime/cluster_substrate.hpp"
#include "util/json.hpp"

namespace mlpo {

class RecoveryDriver;
struct RecoveryStats;

struct TrainerConfig {
  ModelConfig model = paper_model("40B");
  TestbedSpec testbed = TestbedSpec::testbed1();
  EngineOptions engine = EngineOptions::mlp_offload();
  GpuCostModel gpu_cost;
  u32 nodes = 1;
  u32 microbatch = 1;
  u32 accum_steps = 1;
  u64 subgroup_params = kDefaultSubgroupParams;
  /// Simulated params per real element; raise it for big clusters to keep
  /// real memory small (timing is unaffected by construction).
  u64 elem_scale = 8192;
  /// Virtual seconds per real second.
  f64 time_scale = 2000.0;
  /// Attach the PFS path (required for multipath engines).
  bool attach_pfs = true;
  u32 host_cache_override = 0;

  /// NVMe-path storage backend ("sim" emulated default, or the real
  /// "file"/"uring_file" tiers — see runtime/storage_config.hpp). Real
  /// backends are meant to pair with time_scale == 1.
  StorageConfig storage;

  /// Failure injection + elastic checkpoint-restart (src/resilience/).
  /// With resilience.enabled the trainer runs through a RecoveryDriver:
  /// tiers get fail-stop wrappers, checkpoints are taken every
  /// resilience.checkpoint_interval iterations into an internal store, and
  /// injected node losses are repaired instead of aborting the run.
  ResilienceConfig resilience;
};

class Trainer {
 public:
  /// Single-job mode: the trainer owns its whole world (clock, tiers,
  /// schedulers) through a private ClusterSubstrate.
  explicit Trainer(const TrainerConfig& cfg);

  /// Multi-tenant mode (JobManager): run on `substrate`'s shared clock,
  /// tiers and scheduler as tenant `tenant`. The substrate must be in
  /// shared mode and outlive the trainer; cfg.nodes must be 1 (a borrowed
  /// job occupies the one shared node) and any injected failures must be
  /// whole-node (path failures have no meaning on shared tiers).
  Trainer(const TrainerConfig& cfg, ClusterSubstrate& substrate, u32 tenant);

  ~Trainer();

  /// Distribute the optimizer state; must precede run().
  void initialize();

  /// Run `iterations`, discard the first `warmup`, return the rest.
  std::vector<IterationReport> run(u32 iterations, u32 warmup = 0);

  const SimClock& clock() const { return substrate_->clock(); }
  u32 tenant() const { return tenant_; }
  /// The current cluster. With resilience enabled, an elastic restart
  /// REPLACES the underlying object mid-run — re-fetch the reference after
  /// run() instead of holding it across one.
  ClusterSim& cluster();
  const TrainerConfig& config() const { return cfg_; }

  /// Cluster-wide optimizer-state distribution (Fig. 10).
  Engine::Distribution distribution() const;

  /// Recovery statistics (resilience.enabled runs only, else nullptr).
  const RecoveryStats* recovery_stats() const;

 private:
  Trainer(const TrainerConfig& cfg, ClusterSubstrate* borrowed, u32 tenant);
  ClusterSim& cluster_ref() const;

  TrainerConfig cfg_;
  /// Owned in single-job mode, null when borrowing from a JobManager.
  std::unique_ptr<ClusterSubstrate> substrate_owned_;
  /// The substrate this trainer runs on (owned or borrowed).
  ClusterSubstrate* substrate_ = nullptr;
  u32 tenant_ = 0;
  std::unique_ptr<ClusterSim> cluster_;     ///< happy-path runs
  std::unique_ptr<RecoveryDriver> driver_;  ///< resilience runs (owns store)
};

/// Parse a TrainerConfig from a DeepSpeed-style JSON document. Recognised
/// keys (all optional, mirroring the paper's "two JSON key-value pairs"
/// integration plus scenario selection):
///   {
///     "model": "40B",             // Table 2 name
///     "testbed": "testbed1",      // or "testbed2"
///     "nodes": 1, "microbatch": 1, "accum_steps": 1,
///     "subgroup_params": 100000000,
///     "elem_scale": 8192, "time_scale": 2000,
///     "storage": {
///       "backend": "sim",         // or "file" / "uring_file" (real I/O;
///                                 // unknown kinds abort with the known set)
///       "root": "/mnt/nvme/mlpo", // required for the file-backed kinds
///       "direct": false,          // O_DIRECT (uring_file)
///       "queue_depth": 64, "fallback_workers": 2,
///       "force_fallback": false   // skip io_uring, use pread/pwrite pool
///     },
///     "mlp_offload": {
///       "enabled": true,          // false => DeepSpeed ZeRO-3 baseline
///       "preset": "mlp_offload",  // named bundle, see EngineOptions::preset
///       "engine": "offload",      // or "cpu_only" / "tensor_nvme"
///       // policy-registry names (unknown names abort with the known set):
///       "placement_policy": "adaptive_ema",
///       "update_order_policy": "alternating_cache_friendly",
///       "multipath": true,
///       "delayed_grad_conversion": true, "tier_exclusive_locking": true,
///       "prefetch_ahead": 1, "host_cache_subgroups": 3
///       // any other key aborts with the known set
///     }
///   }
TrainerConfig trainer_config_from_json(const json::Value& doc);

/// Convenience: parse from text.
TrainerConfig trainer_config_from_json(const std::string& text);

}  // namespace mlpo
