#include "core/tensor_nvme_engine.hpp"

#include <exception>

namespace mlpo {

TensorNvmeEngine::TensorNvmeEngine(const EngineContext& ctx,
                                   const EngineOptions& opts,
                                   const ShardLayout& layout)
    : TieredEngine(ctx, opts, layout) {
  // This engine has no host cache and no prefetch pipeline, so the
  // cache/prefetch invariants do not apply. The offloader facade has no
  // per-transfer completion feedback (the TensorNVMe API returns bare
  // futures), so adaptive placement policies run from their
  // microbenchmark seeds here — the paper's "dictated by our performance
  // model" static split.
  //
  // "Specifying multiple DiskOffloader objects to create the virtual
  // third-level tier": one offloader per usable path, or one (NVMe only)
  // without multipath.
  const std::size_t usable =
      opts_.multipath ? ctx_.vtier->path_count() : std::size_t{1};
  for (std::size_t p = 0; p < usable; ++p) {
    offloaders_.push_back(std::make_unique<DiskOffloader>(
        ctx_.vtier->path(p), *ctx_.io, ctx_.tenant));
  }
  stored_path_.assign(subgroups_.size(), 0);
}

TensorNvmeEngine::~TensorNvmeEngine() {
  try {
    synchronize_all();
  } catch (...) {
    // Destruction must not throw; the failures were update_phase's or
    // restore_state's to report.
  }
}

std::string TensorNvmeEngine::state_key(u32 id) const {
  return tenant_key("tnvme/" + std::to_string(ctx_.rank) + "/" +
                    std::to_string(id));
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

void TensorNvmeEngine::synchronize_all() {
  std::exception_ptr first_error;
  for (auto& off : offloaders_) {
    try {
      off->synchronize();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void TensorNvmeEngine::update_phase(u64 iteration, IterationReport& report) {
  const std::vector<u32> order = plan_update(iteration, {});

  try {
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
      push_fp16_params(id).get();
      write_through(id);
      trace.sim_bytes_written = sg.sim_state_bytes();

      fold_trace(report, trace);
    }
  } catch (...) {
    // Earlier write-throughs still read subgroup images, and a failed
    // read left its future pending: settle every offloader first.
    try {
      synchronize_all();
    } catch (...) {
      // The loop's own failure, rethrown below, is the one to report.
    }
    throw;
  }

  // The write-backs are not traced per subgroup: their time is the drain.
  SimTimer flush_timer(*ctx_.clock);
  synchronize_all();
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
