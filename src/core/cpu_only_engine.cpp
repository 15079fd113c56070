#include "core/cpu_only_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "io/io_scheduler.hpp"

namespace mlpo {

CpuOnlyEngine::CpuOnlyEngine(const EngineContext& ctx,
                             const EngineOptions& opts,
                             const ShardLayout& layout)
    : ctx_(ctx), opts_(opts), layout_(layout) {
  opts_.validate_common();
  if (ctx_.clock == nullptr || ctx_.grads == nullptr) {
    throw std::invalid_argument("CpuOnlyEngine: clock and grads are required");
  }
  std::vector<u64> accum_elems;
  for (std::size_t i = 0; i < layout_.subgroup_sizes.size(); ++i) {
    // Subgroup identity is the layout's global id (== the local index for
    // classic layouts) so state digests compare across elastic re-shards;
    // engine-internal indexing stays local.
    subgroups_.push_back(std::make_unique<Subgroup>(
        layout_.global_id(static_cast<u32>(i)), layout_.subgroup_sizes[i],
        opts_.elem_scale));
    accum_elems.push_back(subgroups_.back()->real_elems());
  }
  accum_ = std::make_unique<GradAccumulator>(accum_elems);
  const u64 max_elems =
      accum_elems.empty()
          ? 0
          : *std::max_element(accum_elems.begin(), accum_elems.end());
  grad_scratch_.reserve(max_elems);
  fp32_scratch_.reserve(max_elems);
}

void CpuOnlyEngine::initialize() {
  if (initialized_) throw std::logic_error("CpuOnlyEngine: double initialize");
  for (auto& sg : subgroups_) {
    // Same deterministic init scheme as every other engine so cross-engine
    // state comparisons are meaningful; elastic layouts key content on the
    // canonical rank + global id so it survives world-size changes.
    Subgroup::deterministic_param_init(layout_.content_rank(), sg->id(),
                                       sg->params());
  }
  initialized_ = true;
}

void CpuOnlyEngine::deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                                            bool first_micro_step,
                                            bool /*final_micro_step*/) {
  Subgroup& sg = *subgroups_.at(subgroup_id);
  // The FP16 gradient stream still crosses PCIe even though the optimizer
  // state never leaves the host — charge it like the offloading engines
  // do, through the scheduler's D2H link.
  if (ctx_.io != nullptr) {
    IoRequest req = IoRequest::link_transfer(
        IoTarget::kD2HLink, Subgroup::key(layout_.rank, sg.id()),
        sg.sim_params() * kFp16Bytes, IoPriority::kGradDeposit);
    req.tenant = ctx_.tenant;
    ctx_.io->submit(std::move(req)).get();
  }
  // Deposits are synchronous on the caller thread, so the reserved-once
  // member scratch is race-free (and allocation-free after the first use).
  grad_scratch_.resize(sg.real_elems());
  ctx_.grads->generate_fp16(layout_.content_rank(), sg.id(), sample_index,
                            grad_scratch_);
  if (first_micro_step) {
    accum_->store(subgroup_id, grad_scratch_);
  } else {
    accum_->accumulate(subgroup_id, grad_scratch_, ctx_.cpu_pool);
  }
}

void CpuOnlyEngine::deposit_gradients(u64 sample_index,
                                      bool first_micro_step) {
  for (u32 id = 0; id < subgroups_.size(); ++id) {
    deposit_gradients_async(sample_index, id, first_micro_step, true);
  }
}

IterationReport CpuOnlyEngine::run_update(u64 iteration) {
  if (!initialized_) {
    throw std::logic_error("CpuOnlyEngine: run_update before initialize");
  }
  const f64 start = ctx_.clock->now();
  IterationReport report;
  report.iteration = iteration;

  std::vector<f32>& grads_fp32 = fp32_scratch_;
  for (u32 id = 0; id < subgroups_.size(); ++id) {
    Subgroup& sg = *subgroups_[id];
    SimTimer kernel_timer(*ctx_.clock);
    grads_fp32.resize(sg.real_elems());
    accum_->upscale_into(id, grads_fp32, ctx_.cpu_pool);
    ctx_.clock->sleep_for(opts_.convert.seconds_for_params(sg.sim_params()));

    sg.set_step(sg.step() + 1);
    adam_update(opts_.adam, sg.params(), sg.momentum(), sg.variance(),
                grads_fp32, sg.step(), ctx_.cpu_pool);
    const f64 budget =
        static_cast<f64>(sg.sim_params()) / opts_.cpu_update_rate;
    const f64 real = kernel_timer.elapsed();
    if (budget > real) ctx_.clock->sleep_for(budget - real);

    SubgroupTrace trace{};
    trace.subgroup_id = sg.id();
    trace.compute_seconds = std::max(budget, real);
    trace.host_cache_hit = true;  // always host-resident
    report.traces.push_back(trace);
    report.update_compute_seconds += trace.compute_seconds;
    ++report.subgroups_processed;
  }
  report.params_updated = layout_.shard_params;
  report.host_cache_hits = report.subgroups_processed;
  report.update_seconds = ctx_.clock->now() - start;
  return report;
}

u64 CpuOnlyEngine::state_checksum() const {
  u64 sum = 0;
  for (const auto& sg : subgroups_) sum += sg->checksum();
  return sum;
}

Engine::Distribution CpuOnlyEngine::distribution() const {
  Distribution dist;
  for (const auto& sg : subgroups_) {
    dist.host_sim_bytes += sg->sim_state_bytes();
  }
  return dist;
}

std::vector<u32> CpuOnlyEngine::host_resident() const {
  std::vector<u32> ids(subgroups_.size());
  for (u32 id = 0; id < subgroups_.size(); ++id) ids[id] = id;
  return ids;
}

void CpuOnlyEngine::restore_state(u32 id, std::span<const u8> serialized) {
  subgroups_.at(id)->deserialize(serialized);
}

}  // namespace mlpo
