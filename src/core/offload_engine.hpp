// The MLP-Offload engine (paper §3.4, Algorithm 1) — and, under the
// "deepspeed_zero3" preset, a faithful structural model of the DeepSpeed
// ZeRO-3 + DeepNVMe baseline it is evaluated against.
//
// One engine instance manages one worker's (GPU's) optimizer-state shard:
//   * backward phase: receives FP16 gradients subgroup-by-subgroup over the
//     D2H link into the host accumulation buffer; the baseline additionally
//     upscales to FP32 and flushes gradients to third-level storage;
//   * update phase: an asynchronous prefetch -> CPU-Adam -> lazy-flush
//     pipeline over the subgroups, with per-path process-exclusive
//     concurrency control.
//
// This class owns only the pipeline mechanics. The two strategy decisions —
// which storage path a subgroup lives on, and in what order subgroups are
// processed (and hence whether the host cache gets reuse) — are pluggable
// policies (src/policy/) selected by name in EngineOptions.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/host_cache.hpp"
#include "io/io_batch.hpp"
#include "io/io_scheduler.hpp"
#include "policy/placement_policy.hpp"
#include "policy/update_order_policy.hpp"
#include "tiers/virtual_tier.hpp"
#include "train/grad_accum.hpp"
#include "util/aligned_buffer.hpp"

namespace mlpo {

class OffloadEngine final : public Engine {
 public:
  OffloadEngine(const EngineContext& ctx, const EngineOptions& opts,
                const ShardLayout& layout);
  ~OffloadEngine() override;

  void initialize() override;

  /// Deposit one subgroup's FP16 gradients. Runs asynchronously on the I/O
  /// engine: D2H transfer, host accumulation, and — when delayed
  /// conversion is off and this is the window's final micro-step — FP32
  /// upscale + flush to storage.
  void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                               bool first_micro_step,
                               bool final_micro_step) override;

  void wait_gradient_io() override;

  /// The update phase (Algorithm 1): prefetch, convert, CPU-Adam, H2D push
  /// of FP16 params, tier reassignment, lazy flush — pipelined and
  /// instrumented. `iteration` and the current host residency feed the
  /// update-order policy.
  IterationReport run_update(u64 iteration) override;

  const ShardLayout& layout() const override { return layout_; }
  u32 num_subgroups() const override {
    return static_cast<u32>(subgroups_.size());
  }
  const EngineOptions& options() const { return opts_; }

  /// The placement policy steering this engine's subgroup -> path mapping.
  PlacementPolicy& placement() { return *placement_; }
  const PlacementPolicy& placement() const { return *placement_; }
  /// The update-order policy steering the processing schedule.
  const UpdateOrderPolicy& order_policy() const { return *order_policy_; }

  Subgroup snapshot_subgroup(u32 id) const override;
  u64 state_checksum() const override;
  Distribution distribution() const override;
  std::vector<u32> host_resident() const override;
  bool on_persistent_path(u32 id) const override;
  void restore_state(u32 id, std::span<const u8> serialized) override;

  const SimClock& clock() const override { return *ctx_.clock; }
  int rank() const override { return ctx_.rank; }
  /// The scheduler all of this engine's traffic flows through (checkpoint
  /// helpers ride the same queues at IoPriority::kCheckpoint).
  IoScheduler* io() const override { return ctx_.io; }
  u32 tenant() const override { return ctx_.tenant; }

  /// Cumulative staging-pool counters — the ground truth behind the
  /// alloc-churn metric (heap_fallbacks must stay zero in steady state).
  BufferPool::Stats scratch_stats() const { return scratch_->stats(); }

 private:
  struct UpdateSlot;

  std::string state_key(u32 id) const;
  std::string grad_key(u32 id) const;
  /// All scheduler traffic funnels through here so every request carries
  /// the engine's tenant id (shared-scheduler fair-share / fail-stop
  /// scoping; 0 on an owned scheduler).
  std::future<void> submit_io(IoRequest req);
  void poison_host_state(Subgroup& sg);
  /// Reset the persistent update slots for a fresh iteration without
  /// surrendering the grads_fp32 capacity they reserved at construction.
  void reset_slots(u32 n);
  std::future<void> submit_fetch(UpdateSlot& slot);
  u64 fetch_subgroup(UpdateSlot& slot, IoChannel& chan);
  std::future<void> flush_subgroup_async(u32 id,
                                         std::vector<SubgroupTrace>* traces);
  f64 charge_update_compute(u64 sim_params, f64 real_kernel_vseconds);

  EngineContext ctx_;
  EngineOptions opts_;
  ShardLayout layout_;
  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<UpdateOrderPolicy> order_policy_;
  bool use_host_cache_ = false;  ///< order policy runs the lazy-flush path
  std::vector<std::unique_ptr<Subgroup>> subgroups_;
  std::vector<u8> host_valid_;  ///< per-subgroup: host copy authoritative
  std::unique_ptr<GradAccumulator> accum_;
  HostCache cache_;
  IoBatch gradient_io_;
  bool initialized_ = false;

  /// One slab behind every transient I/O-path buffer (fetch staging, flush
  /// serialization, deposit scratch): steady-state iterations suballocate
  /// from here instead of the heap. Created in the ctor once the subgroup
  /// geometry is known; declared before slots_ so any late lease holders
  /// destruct first.
  std::unique_ptr<BufferPool> scratch_;
  /// Persistent per-position update slots, grads_fp32 reserved once to the
  /// largest subgroup — run_update reuses them every iteration.
  std::vector<UpdateSlot> slots_;
  /// stats() snapshot at the end of the previous update phase; the delta
  /// reported per iteration therefore also covers backward-phase deposits.
  BufferPool::Stats pool_mark_{};
};

}  // namespace mlpo
