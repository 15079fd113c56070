// The unified optimizer-update engine interface.
//
// Three engines implement it:
//   * OffloadEngine    — the MLP-Offload pipeline (paper §3.4, Alg. 1) and,
//                        under the "deepspeed_zero3" preset, the DeepSpeed
//                        ZeRO-3 + DeepNVMe baseline;
//   * CpuOnlyEngine    — host-memory-resident update, the paper's "20B CPU"
//                        reference (Fig. 3);
//   * TensorNvmeEngine — the TensorNVMe/Colossal-AI integration facade
//                        (paper §3.5) over per-path DiskOffloaders.
// Worker, Trainer, Checkpoint, and the bench harness consume the interface
// polymorphically; make_engine() selects the implementation by name.
//
// Placement and update ordering are NOT part of an engine: they are
// pluggable policies (src/policy/) selected by name in EngineOptions. The
// presets bundle policy selections the paper's ablations compare.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "telemetry/iteration_report.hpp"
#include "train/adam.hpp"
#include "train/grad_source.hpp"
#include "train/mixed_precision.hpp"
#include "train/sharding.hpp"
#include "train/subgroup.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {

class IoScheduler;
class UpdateOrderPolicy;
class VirtualTier;

struct EngineOptions {
  /// Which Engine implementation make_engine() builds:
  /// "offload" | "cpu_only" | "tensor_nvme".
  std::string engine = "offload";

  /// Design principle 1 precondition: expose all VirtualTier paths to the
  /// placement policy. Off: the policy sees only path 0 (NVMe-only
  /// baseline topology).
  bool multipath = true;

  /// Subgroup -> storage-path strategy, by policy-registry name
  /// (policy/policy_registry.hpp lists the built-ins). The paper's Eq. 1
  /// model is "adaptive_ema"; its static ablation arm is "eq1_static".
  std::string placement_policy = "adaptive_ema";

  /// Subgroup processing-order strategy, by policy-registry name. Policies
  /// whose schedule exploits the host cache also select the lazy
  /// flush-through-cache discipline (design principle 3); "ascending" is
  /// the eager-flush DeepSpeed behaviour.
  std::string update_order_policy = "alternating_cache_friendly";

  /// Design principle 4: keep FP16 gradients on the host and upscale
  /// during the update. Off: upscale + flush FP32 gradients during the
  /// backward pass and fetch them with the subgroup (16 B/param payloads).
  bool delayed_grad_conversion = true;

  /// Design principle 2: node-level process-exclusive tier locking. Off:
  /// all workers hit the tiers concurrently and pay contention penalties.
  /// Consumed when configuring the worker's IoScheduler (the engine itself
  /// never takes a lock; its scheduler's channels do).
  bool tier_exclusive_locking = true;

  /// Subgroups the host can keep resident between iterations (beyond the
  /// pipeline's in-flight slots). Sized from free host memory in practice.
  u32 host_cache_subgroups = 3;
  /// Outstanding prefetches beyond the subgroup being updated (the paper's
  /// host buffers hold 3 subgroups: flushing / updating / prefetching).
  u32 prefetch_ahead = 1;
  /// This worker's CPU update throughput, simulated params per vsecond
  /// (paper cites ~8000 Mparam/s per node when state is host-resident).
  f64 cpu_update_rate = 2000e6;
  /// FP16->FP32 conversion throughput model (paper: ~65 GB/s on CPU).
  ConvertCost convert;
  AdamConfig adam;
  /// Scale reduction: simulated params per real element (1 = full fidelity).
  u64 elem_scale = 1;

  /// Strict construction-time validation (same philosophy as util/env:
  /// a misconfigured engine must abort loudly, not silently measure the
  /// wrong thing). Throws std::invalid_argument naming the bad field.
  /// Checks: positive cpu_update_rate, elem_scale >= 1, policy names
  /// resolvable, a cache-exploiting order policy needs a non-empty host
  /// cache, and prefetch_ahead == 0 with an empty host cache (a pipeline
  /// with neither overlap nor reuse) is rejected.
  void validate() const;
  /// The same checks against an already-constructed order policy —
  /// engines that just built their policy members call this so a single
  /// construction does not resolve each policy name twice.
  void validate_resolved(const UpdateOrderPolicy& order) const;
  /// Just the scalar checks (cpu_update_rate, elem_scale) — for engines
  /// with no host cache or prefetch pipeline (tensor_nvme), where the
  /// cache/prefetch invariants do not apply.
  void validate_common() const;

  /// Named preset bundles (the paper's ablation steps as policy bundles):
  ///   "deepspeed_zero3"    all principles off (ZeRO-3 + DeepNVMe baseline)
  ///   "multipath_caching"  + multi-path placement + cache-friendly order
  ///   "mp_skip_grads"      + delayed gradient conversion
  ///   "mlp_offload"        + tier-exclusive locking (full MLP-Offload)
  ///   "mlp_offload_static" full MLP-Offload with static Eq. 1 placement
  ///   "cpu_only"           host-resident CpuOnlyEngine reference
  ///   "tensor_nvme"        TensorNVMe facade with MLP-Offload policies
  /// Throws std::invalid_argument for unknown names, listing the bundles.
  static EngineOptions preset(const std::string& name);
  static std::vector<std::string> preset_names();

  /// Baseline preset: DeepSpeed-ZeRO-3-style NVMe offloading.
  static EngineOptions deepspeed_zero3();
  /// Full MLP-Offload preset.
  static EngineOptions mlp_offload();
};

/// Wiring to node-shared infrastructure. Raw pointers are non-owning; all
/// referenced objects must outlive the engine.
///
/// All tier and link traffic goes through the IoScheduler: engines never
/// touch a TierLock or a RateLimiter. The scheduler must be configured
/// with this worker's locking policy (see IoScheduler::Config::
/// tier_exclusive_locking / worker_id — the Worker wires this from
/// EngineOptions).
struct EngineContext {
  const SimClock* clock = nullptr;
  VirtualTier* vtier = nullptr;    ///< third-level storage (node-shared)
  IoScheduler* io = nullptr;       ///< this worker's I/O request scheduler
  ThreadPool* cpu_pool = nullptr;  ///< update-kernel threads (may be null)
  const GradSource* grads = nullptr;
  int worker_id = 0;  ///< node-local id (informational; locking lives in io)
  int rank = 0;       ///< global rank, used for storage keys
  /// Tenant (job) id every IoRequest this engine submits is stamped with.
  /// On an owned, single-job scheduler this stays 0; a JobManager-borrowed
  /// engine carries its job's id so the shared scheduler's fair-share,
  /// cancellation, and fail-stop layers can tell the jobs apart.
  u32 tenant = 0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create this shard's subgroups (deterministic parameter init, zero
  /// moments) and distribute them per the engine's storage model. Must be
  /// called once before training.
  virtual void initialize() = 0;

  /// Deposit one subgroup's FP16 gradients for micro-step `sample_index`
  /// (globally unique across iterations x accumulation steps).
  virtual void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                                       bool first_micro_step,
                                       bool final_micro_step) = 0;

  /// Barrier for all outstanding gradient I/O (end of backward phase).
  virtual void wait_gradient_io() = 0;

  /// The update phase: apply one optimizer step to every subgroup,
  /// instrumented. `iteration` feeds the update-order policy.
  virtual IterationReport run_update(u64 iteration) = 0;

  virtual const ShardLayout& layout() const = 0;
  virtual u32 num_subgroups() const = 0;

  /// Read access to subgroup state wherever it currently lives (host or
  /// tier; tier-resident state is read untimed). For tests/inspection.
  virtual Subgroup snapshot_subgroup(u32 id) const = 0;

  /// Order-independent digest of the entire shard's optimizer state. Equal
  /// digests <=> bitwise-equal training state; used to prove placement and
  /// ordering policies do not change results.
  virtual u64 state_checksum() const = 0;

  /// Where the optimizer state currently lives (Fig. 10).
  struct Distribution {
    u64 host_sim_bytes = 0;
    std::vector<u64> path_sim_bytes;  ///< per VirtualTier path
  };
  virtual Distribution distribution() const = 0;

  /// Ids resident in host memory (valid, un-flushed state), LRU first.
  virtual std::vector<u32> host_resident() const = 0;

  /// True when subgroup `id`'s authoritative copy sits on a persistent
  /// VirtualTier path (checkpoint pre-staging consults this).
  virtual bool on_persistent_path(u32 id) const = 0;

  /// Overwrite subgroup `id`'s state from a serialized image (checkpoint
  /// restore). The restored image becomes the authoritative copy.
  virtual void restore_state(u32 id, std::span<const u8> serialized) = 0;

  virtual const SimClock& clock() const = 0;
  virtual int rank() const = 0;

  /// The scheduler this engine's traffic flows through, or nullptr for
  /// engines with no third-level I/O (checkpoint helpers then write the
  /// store directly).
  virtual IoScheduler* io() const = 0;

  /// Tenant id the engine stamps on its IoRequests (EngineContext::tenant).
  /// Checkpoint helpers use this so their store traffic rides the same
  /// fair-share bucket as the engine that owns the state.
  virtual u32 tenant() const { return 0; }

 protected:
  Engine() = default;
};

/// Build the engine implementation selected by `opts.engine`. Each
/// engine's constructor runs the strict option validation relevant to it
/// (the offloading engines check the full EngineOptions contract;
/// cpu_only checks only the fields it consumes — placement/ordering
/// selections do not apply to a host-resident engine).
std::unique_ptr<Engine> make_engine(const EngineContext& ctx,
                                    const EngineOptions& opts,
                                    const ShardLayout& layout);

/// Registered engine kinds ("offload", "cpu_only", "tensor_nvme").
std::vector<std::string> engine_kind_names();

}  // namespace mlpo
