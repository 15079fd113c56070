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
// policies (src/policy/) selected by name in EngineOptions; TieredEngine
// builds and binds them, and the Engine base runs the gradient deposits.
#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/host_cache.hpp"
#include "io/io_scheduler.hpp"
#include "tiers/virtual_tier.hpp"
#include "util/aligned_buffer.hpp"

namespace mlpo {

class OffloadEngine final : public TieredEngine {
 public:
  OffloadEngine(const EngineContext& ctx, const EngineOptions& opts,
                const ShardLayout& layout);
  /// Waits for the gradient deposits: the baseline's link work uses the
  /// scratch pool and the placement policy.
  ~OffloadEngine() override;

  Subgroup snapshot_subgroup(u32 id) const override;
  u64 state_checksum() const override;
  Distribution distribution() const override;
  std::vector<u32> host_resident() const override;
  bool on_persistent_path(u32 id) const override;
  void restore_state(u32 id, std::span<const u8> serialized) override;

  /// Cumulative gradient-scratch pool counters — the ground truth behind
  /// the alloc-churn metric (heap_fallbacks must stay zero in steady
  /// state; only the baseline's FP32 gradient flushes acquire).
  BufferPool::Stats scratch_stats() const { return scratch_->stats(); }

 private:
  struct UpdateSlot;

  /// Write the initial image to its placed path; poison it once landed.
  std::future<void> store_initial_state(u32 id) override;
  /// Baseline only (delayed conversion off), on the window's final
  /// micro-step: after the link transfer, wait for the host part, upscale
  /// to FP32 and flush to storage before the link is released.
  std::function<u64(IoChannel&)> deposit_link_work(
      u32 id, bool final_micro_step,
      std::shared_future<void> host_part) override;
  /// The update phase (Algorithm 1): prefetch, convert, CPU-Adam, H2D push
  /// of FP16 params, tier reassignment, lazy flush — pipelined and
  /// instrumented. `iteration` and the current host residency feed the
  /// update-order policy.
  void update_phase(u64 iteration, IterationReport& report) override;

  std::string state_key(u32 id) const;
  void poison_host_state(Subgroup& sg);
  /// Reset the persistent update slots for a fresh iteration without
  /// surrendering the grads_fp32 capacity the baseline reserved at
  /// construction.
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

  bool use_host_cache_ = false;  ///< order policy runs the lazy-flush path
  std::vector<u8> host_valid_;  ///< per-subgroup: host copy authoritative
  HostCache cache_;

  /// One slab behind the baseline's FP32 gradient-flush scratch:
  /// steady-state iterations suballocate from here instead of the heap.
  /// Created in the ctor once the subgroup geometry is known; declared
  /// before slots_ so any late lease holders destruct first.
  std::unique_ptr<BufferPool> scratch_;
  /// Persistent per-position update slots — run_update reuses them every
  /// iteration. The baseline fetches each subgroup's FP32 gradients into
  /// its slot's grads_fp32, reserved once to the largest subgroup; delayed
  /// conversion upscales into the base's fp32_scratch_ instead.
  std::vector<UpdateSlot> slots_;
};

}  // namespace mlpo
