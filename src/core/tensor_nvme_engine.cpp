#include "core/tensor_nvme_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "policy/policy_registry.hpp"

namespace mlpo {

TensorNvmeEngine::TensorNvmeEngine(const EngineContext& ctx,
                                   const EngineOptions& opts,
                                   const ShardLayout& layout)
    : ctx_(ctx), opts_(opts), layout_(layout),
      placement_(make_placement_policy(opts.placement_policy)),
      order_policy_(make_update_order_policy(opts.update_order_policy)) {
  // Scalar checks only: this engine has no host cache and no prefetch
  // pipeline, so the cache/prefetch invariants do not apply to it.
  opts_.validate_common();
  if (ctx_.clock == nullptr || ctx_.vtier == nullptr || ctx_.io == nullptr ||
      ctx_.grads == nullptr) {
    throw std::invalid_argument(
        "TensorNvmeEngine: clock, vtier, io, and grads are required");
  }
  if (ctx_.vtier->path_count() == 0) {
    throw std::invalid_argument("TensorNvmeEngine: virtual tier has no paths");
  }

  // "Specifying multiple DiskOffloader objects to create the virtual
  // third-level tier": one offloader per usable path, or one (NVMe only)
  // without multipath.
  const std::size_t usable =
      opts_.multipath ? ctx_.vtier->path_count() : std::size_t{1};
  std::vector<f64> bandwidths;
  for (std::size_t p = 0; p < usable; ++p) {
    StorageTier& tier = ctx_.vtier->path(p);
    offloaders_.push_back(
        std::make_unique<DiskOffloader>(tier, *ctx_.io, ctx_.tenant));
    bandwidths.push_back(
        std::min(tier.read_bandwidth(), tier.write_bandwidth()));
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
    staging_.emplace_back(subgroups_.back()->real_elems() * 3);
  }
  stored_path_.assign(subgroups_.size(), 0);
  accum_ = std::make_unique<GradAccumulator>(accum_elems);
  u64 max_elems = 1;
  for (const u64 e : accum_elems) max_elems = std::max(max_elems, e);
  grad_scratch_.reserve(max_elems);
  fp32_scratch_.reserve(max_elems);

  // The offloader facade has no per-transfer completion feedback (the
  // TensorNVMe API returns bare futures), so adaptive policies run from
  // their microbenchmark seeds here — the paper's "dictated by our
  // performance model" static split.
  placement_->bind(std::move(bandwidths),
                   static_cast<u32>(subgroups_.size()));
}

std::string TensorNvmeEngine::state_key(u32 id) const {
  // Co-tenants on a shared VirtualTier get their own key namespace (two
  // jobs reuse the same ranks); tenant 0 keeps the historical keys.
  std::string key =
      "tnvme/" + std::to_string(ctx_.rank) + "/" + std::to_string(id);
  if (ctx_.tenant == 0) return key;
  return "t" + std::to_string(ctx_.tenant) + "/" + key;
}

std::span<f32> TensorNvmeEngine::pack_staging(u32 id) {
  const Subgroup& sg = *subgroups_[id];
  auto& buf = staging_[id];
  const std::size_t n = sg.real_elems();
  std::copy(sg.params().begin(), sg.params().end(), buf.begin());
  std::copy(sg.momentum().begin(), sg.momentum().end(), buf.begin() + n);
  std::copy(sg.variance().begin(), sg.variance().end(), buf.begin() + 2 * n);
  return buf;
}

void TensorNvmeEngine::unpack_staging(u32 id) {
  Subgroup& sg = *subgroups_[id];
  const auto& buf = staging_[id];
  const std::size_t n = sg.real_elems();
  std::copy(buf.begin(), buf.begin() + n, sg.params().begin());
  std::copy(buf.begin() + n, buf.begin() + 2 * n, sg.momentum().begin());
  std::copy(buf.begin() + 2 * n, buf.end(), sg.variance().begin());
}

std::future<void> TensorNvmeEngine::submit_io(IoRequest req) {
  req.tenant = ctx_.tenant;
  return ctx_.io->submit(std::move(req));
}

void TensorNvmeEngine::write_through(u32 id) {
  const std::size_t path = placement_->path_for(id);
  offloaders_[path]->async_write(state_key(id), pack_staging(id),
                                 subgroups_[id]->sim_state_bytes());
  stored_path_[id] = path;
}

void TensorNvmeEngine::initialize() {
  if (initialized_) {
    throw std::logic_error("TensorNvmeEngine: double initialize");
  }
  for (u32 id = 0; id < num_subgroups(); ++id) {
    Subgroup& sg = *subgroups_[id];
    Subgroup::deterministic_param_init(layout_.content_rank(), sg.id(),
                                       sg.params());
    write_through(id);
  }
  for (auto& off : offloaders_) off->synchronize();
  initialized_ = true;
}

void TensorNvmeEngine::deposit_gradients_async(u64 sample_index,
                                               u32 subgroup_id,
                                               bool first_micro_step,
                                               bool /*final_micro_step*/) {
  Subgroup& sg = *subgroups_.at(subgroup_id);
  const u64 sim_params = sg.sim_params();
  const u64 real_elems = sg.real_elems();
  // FP16 gradients stream over the D2H link and accumulate on the host —
  // the facade always runs the delayed-conversion discipline.
  IoRequest req = IoRequest::link_transfer(
      IoTarget::kD2HLink, state_key(subgroup_id), sim_params * kFp16Bytes,
      IoPriority::kGradDeposit);
  req.work = [this, sample_index, subgroup_id, first_micro_step, sim_params,
              real_elems](IoChannel& link) -> u64 {
    link.transfer(sim_params * kFp16Bytes);
    // Member scratch is safe here: all deposit work functions dispatch on
    // the one D2H link channel, so they are serial per engine.
    grad_scratch_.resize(real_elems);
    ctx_.grads->generate_fp16(layout_.content_rank(),
                              layout_.global_id(subgroup_id), sample_index,
                              grad_scratch_);
    if (first_micro_step) {
      accum_->store(subgroup_id, grad_scratch_);
    } else {
      accum_->accumulate(subgroup_id, grad_scratch_, ctx_.cpu_pool);
    }
    return sim_params * kFp16Bytes;
  };
  gradient_io_.add(submit_io(std::move(req)));
}

void TensorNvmeEngine::wait_gradient_io() { gradient_io_.wait_all(); }

IterationReport TensorNvmeEngine::run_update(u64 iteration) {
  if (!initialized_) {
    throw std::logic_error("TensorNvmeEngine: run_update before initialize");
  }
  const f64 phase_start = ctx_.clock->now();
  const u32 n = num_subgroups();
  placement_->rebalance();
  const std::vector<u32> order = order_policy_->order(n, iteration, {});
  validate_order_permutation(order, n, order_policy_->name());

  IterationReport report;
  report.iteration = iteration;
  std::vector<f32>& grads_fp32 = fp32_scratch_;

  for (const u32 id : order) {
    Subgroup& sg = *subgroups_[id];
    SubgroupTrace trace{};
    trace.subgroup_id = id;

    // TensorNVMe discipline: synchronous per-tensor read of the subgroup
    // tensor from the offloader it was last written to (no prefetch
    // pipeline).
    {
      SimTimer read_timer(*ctx_.clock);
      offloaders_[stored_path_[id]]
          ->async_read(state_key(id), staging_[id], sg.sim_state_bytes())
          .get();
      unpack_staging(id);
      trace.read_seconds = read_timer.elapsed();
      trace.sim_bytes_read = sg.sim_state_bytes();
    }

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
    trace.compute_seconds = budget;

    // H2D push of the updated FP16 parameters, then asynchronous
    // write-back through the offloader (drained at the phase barrier) —
    // the write adopts the policy's current assignment, so a rebalance
    // migrates subgroups one update phase at a time.
    {
      IoRequest h2d = IoRequest::link_transfer(
          IoTarget::kH2DLink, state_key(id), sg.sim_fp16_param_bytes(),
          IoPriority::kDemandPrefetch);
      submit_io(std::move(h2d)).get();
    }
    write_through(id);
    trace.sim_bytes_written = sg.sim_state_bytes();

    report.traces.push_back(trace);
    report.sim_bytes_fetched += trace.sim_bytes_read;
    report.sim_bytes_flushed += trace.sim_bytes_written;
    report.fetch_seconds += trace.read_seconds;
    report.update_compute_seconds += trace.compute_seconds;
    ++report.subgroups_processed;
  }

  {
    SimTimer flush_timer(*ctx_.clock);
    for (auto& off : offloaders_) off->synchronize();
    report.flush_seconds = flush_timer.elapsed();
  }
  report.params_updated = layout_.shard_params;
  report.update_seconds = ctx_.clock->now() - phase_start;
  return report;
}

u64 TensorNvmeEngine::state_checksum() const {
  u64 sum = 0;
  for (const auto& sg : subgroups_) sum += sg->checksum();
  return sum;
}

Engine::Distribution TensorNvmeEngine::distribution() const {
  Distribution dist;
  dist.path_sim_bytes.assign(ctx_.vtier->path_count(), 0);
  for (u32 id = 0; id < num_subgroups(); ++id) {
    dist.path_sim_bytes[stored_path_[id]] +=
        subgroups_[id]->sim_state_bytes();
  }
  return dist;
}

bool TensorNvmeEngine::on_persistent_path(u32 id) const {
  return ctx_.vtier->path(stored_path_.at(id)).persistent();
}

void TensorNvmeEngine::restore_state(u32 id, std::span<const u8> serialized) {
  Subgroup& sg = *subgroups_.at(id);
  sg.deserialize(serialized);
  write_through(id);
  offloaders_[stored_path_[id]]->synchronize();
}

}  // namespace mlpo
