#include "core/cpu_only_engine.hpp"

#include <algorithm>

#include "io/io_scheduler.hpp"

namespace mlpo {

CpuOnlyEngine::CpuOnlyEngine(const EngineContext& ctx,
                             const EngineOptions& opts,
                             const ShardLayout& layout)
    : Engine(ctx, opts, layout) {
  u64 max_elems = 0;
  for (const auto& sg : subgroups_) {
    max_elems = std::max(max_elems, sg->real_elems());
  }
  fp32_scratch_.reserve(max_elems);
}

void CpuOnlyEngine::deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                                            bool first_micro_step,
                                            bool /*final_micro_step*/) {
  const Subgroup& sg = *subgroups_.at(subgroup_id);
  // The FP16 gradient stream still crosses PCIe even though the optimizer
  // state never leaves the host — charge it like the offloading engines
  // do, through the scheduler's D2H link.
  if (ctx_.io != nullptr) {
    IoRequest req = IoRequest::link_transfer(
        IoTarget::kD2HLink, tenant_key(Subgroup::key(ctx_.rank, subgroup_id)),
        sg.sim_params() * kFp16Bytes, IoPriority::kGradDeposit);
    req.tenant = ctx_.tenant;
    ctx_.io->submit(std::move(req)).get();
  }
  // Synchronous: the deposit is done on return.
  deposit_fp16_async(sample_index, subgroup_id, first_micro_step).get();
}

void CpuOnlyEngine::deposit_gradients(u64 sample_index,
                                      bool first_micro_step) {
  for (u32 id = 0; id < num_subgroups(); ++id) {
    deposit_gradients_async(sample_index, id, first_micro_step, true);
  }
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
