// Host-memory-resident update engine — the paper's 20B reference point
// (Fig. 3, "20B CPU"): the full FP32 optimizer state fits in host RAM, so
// the update phase is pure CPU compute with zero third-level I/O.
//
// The Engine base supplies the subgroups, the gradient deposits and the
// charged Adam step, so this engine and the offloading ones are
// numerically comparable; all it adds is host residency. Selected through
// the unified interface as engine kind "cpu_only".
#pragma once

#include <vector>

#include "core/engine.hpp"

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

  /// Deposit FP16 gradients for one micro-step across ALL subgroups
  /// (D2H charge + accumulate) and wait for them — the historical
  /// convenience entry point.
  void deposit_gradients(u64 sample_index, bool first_micro_step);

  /// Everything is host-resident, nothing ever sits on a tier.
  Distribution distribution() const override;
  std::vector<u32> host_resident() const override;
  bool on_persistent_path(u32 /*id*/) const override { return false; }
  void restore_state(u32 id, std::span<const u8> serialized) override;

 private:
  /// The state never leaves the host: nothing to store.
  std::future<void> store_initial_state(u32 /*id*/) override { return {}; }
  /// Pure-compute update phase over all subgroups, in id order.
  void update_phase(u64 iteration, IterationReport& report) override;
};

}  // namespace mlpo
