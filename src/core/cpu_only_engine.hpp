// Host-memory-resident update engine — the paper's 20B reference point
// (Fig. 3, "20B CPU"): the full FP32 optimizer state fits in host RAM, so
// the update phase is pure CPU compute with zero third-level I/O.
//
// Shares the subgroup/Adam/gradient machinery with OffloadEngine so the two
// are numerically comparable; only the data movement differs. Selected
// through the unified interface as engine kind "cpu_only".
#pragma once

#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "train/grad_accum.hpp"

namespace mlpo {

class CpuOnlyEngine final : public Engine {
 public:
  /// Needs ctx.clock and ctx.grads. When ctx.io is set (the make_engine
  /// path wires the worker's scheduler), gradient deposits charge its D2H
  /// link channel and checkpoints ride its queues, with the same
  /// accounting as the offloading engines; without it the gradient stream
  /// is free. Of `opts` only the scalar fields apply (validate_common):
  /// placement and ordering have nothing to act on when every subgroup is
  /// host-resident.
  CpuOnlyEngine(const EngineContext& ctx, const EngineOptions& opts,
                const ShardLayout& layout);

  void initialize() override;

  /// Deposit FP16 gradients for one micro-step across ALL subgroups
  /// (D2H charge + accumulate) — the historical convenience entry point.
  void deposit_gradients(u64 sample_index, bool first_micro_step);

  /// Unified per-subgroup deposit. Synchronous (host memory is the
  /// destination); `final_micro_step` has no extra work here.
  void deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                               bool first_micro_step,
                               bool final_micro_step) override;
  void wait_gradient_io() override {}

  /// Pure-compute update phase over all subgroups.
  IterationReport run_update(u64 iteration) override;

  const ShardLayout& layout() const override { return layout_; }
  u32 num_subgroups() const override {
    return static_cast<u32>(subgroups_.size());
  }
  const Subgroup& subgroup(u32 id) const { return *subgroups_.at(id); }
  Subgroup snapshot_subgroup(u32 id) const override {
    return *subgroups_.at(id);
  }
  u64 state_checksum() const override;

  /// Everything is host-resident, nothing ever sits on a tier.
  Distribution distribution() const override;
  std::vector<u32> host_resident() const override;
  bool on_persistent_path(u32 /*id*/) const override { return false; }
  void restore_state(u32 id, std::span<const u8> serialized) override;

  const SimClock& clock() const override { return *ctx_.clock; }
  int rank() const override { return layout_.rank; }
  IoScheduler* io() const override { return ctx_.io; }
  u32 tenant() const override { return ctx_.tenant; }

 private:
  EngineContext ctx_;
  EngineOptions opts_;
  ShardLayout layout_;
  std::vector<std::unique_ptr<Subgroup>> subgroups_;
  std::unique_ptr<GradAccumulator> accum_;
  /// Reserved-once scratch: deposits and updates are serial per engine, so
  /// member buffers (not a pool) suffice to keep the steady-state path free
  /// of heap churn.
  std::vector<u16> grad_scratch_;
  std::vector<f32> fp32_scratch_;
  bool initialized_ = false;
};

}  // namespace mlpo
