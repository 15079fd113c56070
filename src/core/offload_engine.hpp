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
// State I/O is zero-copy: a fetch reads the tier object straight into the
// subgroup's image (train/subgroup.hpp) and a flush writes the image
// straight out. Once a write has landed — in the request's completion
// hook — the host copy's P/M/V are poisoned with NaN, so state consumed
// without a re-fetch fails loudly. A fetch of a subgroup whose flush is
// still in flight waits for that flush first.
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
#include "util/aligned_buffer.hpp"

namespace mlpo {

class OffloadEngine final : public Engine {
 public:
  OffloadEngine(const EngineContext& ctx, const EngineOptions& opts,
                const ShardLayout& layout);
  ~OffloadEngine() override;

  /// Deposit one subgroup's FP16 gradients. Runs asynchronously on the I/O
  /// engine: D2H transfer, host accumulation, and — when delayed
  /// conversion is off and this is the window's final micro-step — FP32
  /// upscale + flush to storage.
  void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                               bool first_micro_step,
                               bool final_micro_step) override;

  void wait_gradient_io() override;

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

  /// Cumulative gradient-scratch pool counters — the ground truth behind
  /// the alloc-churn metric (heap_fallbacks must stay zero in steady
  /// state; only gradient deposits acquire).
  BufferPool::Stats scratch_stats() const { return scratch_->stats(); }

 private:
  struct UpdateSlot;

  /// Write the initial image to its placed path; poison it once landed.
  std::future<void> store_initial_state(u32 id) override;
  /// The update phase (Algorithm 1): prefetch, convert, CPU-Adam, H2D push
  /// of FP16 params, tier reassignment, lazy flush — pipelined and
  /// instrumented. `iteration` and the current host residency feed the
  /// update-order policy.
  void update_phase(u64 iteration, IterationReport& report) override;

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
  /// A write of subgroup `id`'s image to its placed path (no hooks yet).
  IoRequest state_write(u32 id, IoPriority priority);
  /// Read subgroup `slot.id`'s image from its tier (plus, for the
  /// baseline, its FP32 gradients); completion checks the header.
  std::future<void> submit_fetch(UpdateSlot& slot);
  /// Drop `id` from the host and write its image back; completion poisons
  /// the host copy and records the write in `traces`.
  std::future<void> flush_subgroup_async(u32 id,
                                         std::vector<SubgroupTrace>* traces);

  std::unique_ptr<PlacementPolicy> placement_;
  std::unique_ptr<UpdateOrderPolicy> order_policy_;
  bool use_host_cache_ = false;  ///< order policy runs the lazy-flush path
  std::vector<u8> host_valid_;  ///< per-subgroup: host copy authoritative
  HostCache cache_;
  IoBatch gradient_io_;

  /// One slab behind the deposit path's gradient scratch (FP16, and the
  /// baseline's FP32 upscale): steady-state iterations suballocate from
  /// here instead of the heap. Created in the ctor once the subgroup
  /// geometry is known; declared before slots_ so any late lease holders
  /// destruct first.
  std::unique_ptr<BufferPool> scratch_;
  /// Persistent per-position update slots, grads_fp32 reserved once to the
  /// largest subgroup — run_update reuses them every iteration.
  std::vector<UpdateSlot> slots_;
};

}  // namespace mlpo
