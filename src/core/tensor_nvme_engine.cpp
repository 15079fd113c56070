#include "core/tensor_nvme_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "policy/policy_registry.hpp"

namespace mlpo {

TensorNvmeEngine::TensorNvmeEngine(const EngineContext& ctx,
                                   const EngineOptions& opts,
                                   const ShardLayout& layout)
    : Engine(ctx, opts, layout),
      placement_(make_placement_policy(opts.placement_policy)),
      order_policy_(make_update_order_policy(opts.update_order_policy)) {
  // The base ran the scalar checks; this engine has no host cache and no
  // prefetch pipeline, so the cache/prefetch invariants do not apply.
  if (ctx_.vtier == nullptr || ctx_.io == nullptr) {
    throw std::invalid_argument("TensorNvmeEngine: vtier and io are required");
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

  u64 max_elems = 1;
  for (const auto& sg : subgroups_) {
    max_elems = std::max(max_elems, sg->real_elems());
  }
  stored_path_.assign(subgroups_.size(), 0);
  fp32_scratch_.reserve(max_elems);

  // The offloader facade has no per-transfer completion feedback (the
  // TensorNVMe API returns bare futures), so adaptive policies run from
  // their microbenchmark seeds here — the paper's "dictated by our
  // performance model" static split.
  placement_->bind(std::move(bandwidths),
                   static_cast<u32>(subgroups_.size()));
}

std::string TensorNvmeEngine::state_key(u32 id) const {
  return tenant_key("tnvme/" + std::to_string(ctx_.rank) + "/" +
                    std::to_string(id));
}

std::future<void> TensorNvmeEngine::submit_io(IoRequest req) {
  req.tenant = ctx_.tenant;
  return ctx_.io->submit(std::move(req));
}

std::future<void> TensorNvmeEngine::write_through(u32 id) {
  const std::size_t path = placement_->path_for(id);
  stored_path_[id] = path;
  Subgroup& sg = *subgroups_[id];
  return offloaders_[path]->async_write(state_key(id), sg.state(),
                                        sg.sim_state_bytes());
}

std::future<void> TensorNvmeEngine::store_initial_state(u32 id) {
  return write_through(id);
}

TensorNvmeEngine::~TensorNvmeEngine() {
  try {
    wait_gradient_io();  // host parts write into the accumulation buffer
  } catch (...) {
    // Destruction must not throw; failures were wait_gradient_io()'s to
    // report.
  }
}

void TensorNvmeEngine::deposit_gradients_async(u64 sample_index,
                                               u32 subgroup_id,
                                               bool first_micro_step,
                                               bool /*final_micro_step*/) {
  const u64 sim_params = subgroups_.at(subgroup_id)->sim_params();
  // FP16 gradients stream over the D2H link and accumulate on the host —
  // the facade always runs the delayed-conversion discipline.
  gradient_io_.add(
      deposit_fp16_async(sample_index, subgroup_id, first_micro_step));
  gradient_io_.add(submit_io(IoRequest::link_transfer(
      IoTarget::kD2HLink, state_key(subgroup_id), sim_params * kFp16Bytes,
      IoPriority::kGradDeposit)));
}

void TensorNvmeEngine::wait_gradient_io() { gradient_io_.wait_all(); }

void TensorNvmeEngine::update_phase(u64 iteration, IterationReport& report) {
  const u32 n = num_subgroups();
  placement_->rebalance();
  const std::vector<u32> order = order_policy_->order(n, iteration, {});
  validate_order_permutation(order, n, order_policy_->name());

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
          ->async_read(state_key(id), sg.state(), sg.sim_state_bytes())
          .get();
      trace.read_seconds = read_timer.elapsed();
      trace.sim_bytes_read = sg.sim_state_bytes();
    }

    trace.compute_seconds = update_subgroup(id, fp32_scratch_, true);

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

    fold_trace(report, trace);
  }

  // The write-backs are not traced per subgroup: their time is the drain.
  SimTimer flush_timer(*ctx_.clock);
  for (auto& off : offloaders_) off->synchronize();
  report.flush_seconds += flush_timer.elapsed();
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
