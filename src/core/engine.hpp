// The unified optimizer-update engine: one base class, three data-movement
// models.
//
// The Engine base owns everything the three engines do the same way, so
// one module decides how an optimizer step is computed and charged:
//   * the context, options and shard layout, and their accessors;
//   * the subgroups (identity = the layout's global id), whose state
//     images it allocates in one pre-faulted slab, the host FP16 gradient
//     accumulation buffer, and one FP32 upscale scratch reserved to the
//     largest subgroup;
//   * deterministic parameter init and the initialize-once contract;
//   * the whole gradient deposit and its barrier: the host part (generate
//     FP16 gradients, then store or accumulate them) runs on the CPU pool,
//     one task per subgroup, beside one D2H link request that carries only
//     the modelled link time; deposit_link_work() is the one hook;
//   * the tenant-stamped submit every scheduler request goes through;
//   * the charged update step: upscale + conversion charge, Adam, and the
//     residual cpu_update_rate budget, which is the compute time reported;
//   * the "t<tenant>/" storage-key prefix, the scalar option and context
//     checks, and the per-subgroup trace -> IterationReport fold.
//
// TieredEngine, a thin layer, adds what only the two engines with state on
// the VirtualTier share: the vtier/io requirement, the two policies, the
// per-phase update plan and the H2D push of updated FP16 parameters.
//
// Each engine implements only where the state lives and how it moves:
//   * OffloadEngine    — the MLP-Offload pipeline (paper §3.4, Alg. 1:
//                        prefetch, host cache, lazy flush) and, under the
//                        "deepspeed_zero3" preset, the DeepSpeed ZeRO-3 +
//                        DeepNVMe baseline;
//   * CpuOnlyEngine    — host-memory-resident update, the paper's "20B CPU"
//                        reference (Fig. 3);
//   * TensorNvmeEngine — the TensorNVMe/Colossal-AI integration facade
//                        (paper §3.5): per-tensor round-trips through one
//                        DiskOffloader per path.
// Worker, Trainer, Checkpoint, and the bench harness consume the interface
// polymorphically; make_engine() selects the implementation by name.
//
// Placement and update ordering are NOT part of an engine: they are
// pluggable policies (src/policy/) selected by name in EngineOptions. The
// presets bundle policy selections the paper's ablations compare.
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "io/io_batch.hpp"
#include "io/io_request.hpp"
#include "policy/placement_policy.hpp"
#include "policy/update_order_policy.hpp"
#include "telemetry/iteration_report.hpp"
#include "train/adam.hpp"
#include "train/grad_accum.hpp"
#include "train/grad_source.hpp"
#include "train/mixed_precision.hpp"
#include "train/sharding.hpp"
#include "train/subgroup.hpp"
#include "util/aligned_buffer.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {

class IoScheduler;
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
  /// Just the scalar checks (cpu_update_rate, elem_scale). The Engine
  /// base runs these for every engine; messages start "EngineOptions:".
  void validate_common() const;
  /// The cache/prefetch checks against an already-constructed order
  /// policy — OffloadEngine, the one engine with a host cache and a
  /// prefetch pipeline, calls this so a single construction does not
  /// resolve each policy name twice.
  void validate_resolved(const UpdateOrderPolicy& order) const;

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
/// touch a TierLock or a RateLimiter. Locking belongs to the scheduler,
/// which the Worker configures with this worker's policy and lock key
/// (IoScheduler::Config::tier_exclusive_locking and worker_id).
struct EngineContext {
  const SimClock* clock = nullptr;
  VirtualTier* vtier = nullptr;    ///< third-level storage (node-shared)
  IoScheduler* io = nullptr;       ///< this worker's I/O request scheduler
  ThreadPool* cpu_pool = nullptr;  ///< update-kernel threads (may be null)
  const GradSource* grads = nullptr;
  int rank = 0;  ///< global rank, used for storage keys
  /// Tenant (job) id every IoRequest this engine submits is stamped with.
  /// On an owned, single-job scheduler this stays 0; a JobManager-borrowed
  /// engine carries its job's id so the shared scheduler's fair-share,
  /// cancellation, and fail-stop layers can tell the jobs apart.
  u32 tenant = 0;
};

class Engine {
 public:
  /// Waits for the outstanding gradient deposits.
  virtual ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Give every subgroup its deterministic initial parameters (zero
  /// moments) and hand each to the engine's storage model. Must be called
  /// once before training; a second call throws std::logic_error.
  void initialize();

  /// Deposit one subgroup's FP16 gradients for micro-step `sample_index`
  /// (globally unique across iterations x accumulation steps),
  /// asynchronously; the D2H charge is free without ctx.io. All of a
  /// micro-step's deposits must be awaited with wait_gradient_io() before
  /// the next micro-step deposits: that barrier orders accumulation.
  void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                               bool first_micro_step, bool final_micro_step);

  /// Barrier for all outstanding gradient I/O (end of backward phase).
  void wait_gradient_io();

  /// The update phase: apply one optimizer step to every subgroup,
  /// instrumented. `iteration` feeds the update-order policy. Throws
  /// std::logic_error before initialize().
  IterationReport run_update(u64 iteration);

  const ShardLayout& layout() const { return layout_; }
  u32 num_subgroups() const { return static_cast<u32>(subgroups_.size()); }
  const EngineOptions& options() const { return opts_; }

  /// Read access to subgroup state wherever it currently lives (host or
  /// tier; tier-resident state is read untimed). For tests/inspection. The
  /// base reads the host copies, which is right for engines that keep them
  /// authoritative; OffloadEngine overrides this and state_checksum().
  virtual Subgroup snapshot_subgroup(u32 id) const;

  /// Order-independent digest of the entire shard's optimizer state. Equal
  /// digests <=> bitwise-equal training state; used to prove placement and
  /// ordering policies do not change results.
  virtual u64 state_checksum() const;

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

  const SimClock& clock() const { return *ctx_.clock; }
  int rank() const { return ctx_.rank; }

  /// The scheduler this engine's traffic flows through, or nullptr for
  /// engines with no third-level I/O (checkpoint helpers then write the
  /// store directly).
  IoScheduler* io() const { return ctx_.io; }

  /// Tenant id the engine stamps on its IoRequests (EngineContext::tenant).
  /// Checkpoint helpers use this so their store traffic rides the same
  /// fair-share bucket as the engine that owns the state.
  u32 tenant() const { return ctx_.tenant; }

 protected:
  /// Runs validate_common(), requires ctx.clock and ctx.grads, and builds
  /// one Subgroup (identity = the layout's global id) and one gradient
  /// accumulation buffer per layout entry, and reserves fp32_scratch_. The
  /// subgroups' images share one exact-size slab, pre-faulted in a single
  /// call (AlignedBuffer::populated): separate images of ~145 KB would
  /// each cross glibc's 128 KiB mmap threshold and be mapped, faulted and
  /// unmapped one by one.
  Engine(const EngineContext& ctx, const EngineOptions& opts,
         const ShardLayout& layout);

  /// initialize() calls this right after local subgroup `id` got its
  /// initial parameters. A valid returned future is awaited before
  /// initialize() returns.
  virtual std::future<void> store_initial_state(u32 id) = 0;

  /// run_update()'s body: move each subgroup's state to the host, call
  /// update_subgroup(), move it back, and fold_trace() each subgroup.
  /// run_update() sets the iteration, params_updated and update_seconds.
  virtual void update_phase(u64 iteration, IterationReport& report) = 0;

  /// `key` in this engine's storage namespace: co-tenants on a shared
  /// VirtualTier reuse the same ranks, so tenants other than 0 get a
  /// "t<tenant>/" prefix; tenant 0 keeps the unprefixed keys.
  std::string tenant_key(std::string key) const;

  /// Local subgroup `id`'s gradient key in this engine's namespace: the
  /// label of its D2H deposit, and the object the baseline flushes its
  /// FP32 gradients to.
  std::string grad_key(u32 id) const;

  /// Submit `req` to ctx.io stamped with this engine's tenant id (fair
  /// share and fail-stop scoping on a shared scheduler).
  std::future<void> submit_io(IoRequest req);

  /// The work the D2H link request of subgroup `id`'s deposit runs instead
  /// of the plain link charge; empty (the default) charges the link only.
  /// `host_part` settles once the deposit's FP16 gradients are complete.
  /// Work that captures a derived engine's members needs that engine's
  /// destructor to call wait_gradient_io(): ~Engine runs after them.
  virtual std::function<u64(IoChannel&)> deposit_link_work(
      u32 /*id*/, bool /*final_micro_step*/,
      std::shared_future<void> /*host_part*/) {
    return {};
  }

  /// One charged optimizer step of local subgroup `id` (Alg. 1 l.6-7):
  /// with `upscale`, convert the accumulated FP16 gradients into
  /// `grads_fp32` and charge the conversion; otherwise `grads_fp32`
  /// already holds them. Then Adam, and a sleep for whatever of the
  /// cpu_update_rate budget the real kernels did not use. Returns that
  /// budget, the compute time every engine reports.
  f64 update_subgroup(u32 id, std::vector<f32>& grads_fp32, bool upscale);

  /// Append `trace` to `report` and add its bytes, times, cache hit and
  /// subgroup count to the report's totals.
  static void fold_trace(IterationReport& report, const SubgroupTrace& trace);

  EngineContext ctx_;
  EngineOptions opts_;
  ShardLayout layout_;
  /// Backs every subgroup's image; declared first so it outlives them.
  AlignedBuffer state_slab_;
  std::vector<std::unique_ptr<Subgroup>> subgroups_;
  std::unique_ptr<GradAccumulator> accum_;
  /// Real elements of the largest subgroup (at least 1). The upscale
  /// scratch is reserved to it once: updates run one subgroup at a time.
  u64 max_real_elems_ = 1;
  std::vector<f32> fp32_scratch_;

 private:
  /// The host part of a gradient deposit, as a task on ctx.cpu_pool (run
  /// inline without a pool): deposit_fp16() for local subgroup `id`.
  std::shared_future<void> deposit_fp16_async(u64 sample_index, u32 id,
                                              bool first_micro_step);
  /// Generate local subgroup `id`'s FP16 gradients for `sample_index`.
  /// The first micro-step writes them straight into its accumulation
  /// buffer; later ones generate into a per-thread scratch and add it in.
  void deposit_fp16(u64 sample_index, u32 id, bool first_micro_step);

  /// Every outstanding deposit part: host tasks and D2H link requests.
  IoBatch gradient_io_;
  bool initialized_ = false;
};

/// The layer shared by OffloadEngine and TensorNvmeEngine, whose state
/// lives on the VirtualTier. CpuOnlyEngine derives from Engine directly: it
/// ignores the policy names and pushes nothing.
class TieredEngine : public Engine {
 public:
  /// The placement policy steering this engine's subgroup -> path mapping.
  const PlacementPolicy& placement() const { return *placement_; }

 protected:
  /// Requires ctx.vtier (with a path) and ctx.io, builds both policies by
  /// name and binds placement to the per-path min(read, write) bandwidths
  /// of all paths, or of just the primary (NVMe) one without multipath.
  TieredEngine(const EngineContext& ctx, const EngineOptions& opts,
               const ShardLayout& layout);

  /// The update phase's prologue: grant the placement policy its
  /// rebalance(), then ask the order policy for this iteration's schedule
  /// given the host-resident ids (LRU first) and check it is a permutation.
  std::vector<u32> plan_update(u64 iteration,
                               std::span<const u32> residents);

  /// async_h2d_transfer of subgroup `id`'s updated FP16 parameters (Alg. 1
  /// l.8). Only the link time is modelled; the GPU copy has no state here.
  std::future<void> push_fp16_params(u32 id);

  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<UpdateOrderPolicy> order_policy_;
};

/// Build the engine implementation selected by `opts.engine`. Every
/// engine runs validate_common() and the clock/grads checks in the base
/// constructor; offload and tensor_nvme also require vtier and io
/// (TieredEngine), and offload adds the cache/prefetch contract
/// (validate_resolved()).
std::unique_ptr<Engine> make_engine(const EngineContext& ctx,
                                    const EngineOptions& opts,
                                    const ShardLayout& layout);

/// Registered engine kinds ("offload", "cpu_only", "tensor_nvme").
std::vector<std::string> engine_kind_names();

}  // namespace mlpo
