#include "core/cpu_only_engine.hpp"

namespace mlpo {

CpuOnlyEngine::CpuOnlyEngine(const EngineContext& ctx,
                             const EngineOptions& opts,
                             const ShardLayout& layout)
    : Engine(ctx, opts, layout) {}

void CpuOnlyEngine::deposit_gradients(u64 sample_index,
                                      bool first_micro_step) {
  for (u32 id = 0; id < num_subgroups(); ++id) {
    deposit_gradients_async(sample_index, id, first_micro_step, true);
  }
  wait_gradient_io();
}

void CpuOnlyEngine::update_phase(u64 /*iteration*/, IterationReport& report) {
  for (u32 id = 0; id < num_subgroups(); ++id) {
    SubgroupTrace trace{};
    trace.subgroup_id = id;
    trace.compute_seconds = update_subgroup(id, fp32_scratch_, true);
    trace.host_cache_hit = true;  // always host-resident
    fold_trace(report, trace);
  }
}

Engine::Distribution CpuOnlyEngine::distribution() const {
  Distribution dist;
  for (const auto& sg : subgroups_) {
    dist.host_sim_bytes += sg->sim_state_bytes();
  }
  return dist;
}

std::vector<u32> CpuOnlyEngine::host_resident() const {
  std::vector<u32> ids(num_subgroups());
  for (u32 id = 0; id < num_subgroups(); ++id) ids[id] = id;
  return ids;
}

void CpuOnlyEngine::restore_state(u32 id, std::span<const u8> serialized) {
  subgroups_.at(id)->deserialize(serialized);
}

}  // namespace mlpo
