#include "core/offload_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "util/logging.hpp"

namespace mlpo {

struct OffloadEngine::UpdateSlot {
  u32 id = 0;
  bool cache_hit = false;
  std::future<void> fetch_done;
  f64 fetch_seconds = 0;
  u64 fetch_sim_bytes = 0;
  std::vector<f32> grads_fp32;
};

OffloadEngine::OffloadEngine(const EngineContext& ctx,
                             const EngineOptions& opts,
                             const ShardLayout& layout)
    : TieredEngine(ctx, opts, layout),
      use_host_cache_(order_policy_->uses_host_cache()),
      cache_(use_host_cache_ ? opts.host_cache_subgroups : 0) {
  opts_.validate_resolved(*order_policy_);
  // The scheduler's channels own the locking discipline; the engine flag
  // only documents intent. Surface a divergence loudly so an ablation
  // doesn't silently measure the wrong discipline.
  if (ctx_.io->config().tier_exclusive_locking !=
      opts_.tier_exclusive_locking) {
    MLPO_LOG_WARN << "OffloadEngine: EngineOptions::tier_exclusive_locking="
                  << opts_.tier_exclusive_locking
                  << " but the IoScheduler was built with "
                  << ctx_.io->config().tier_exclusive_locking
                  << "; the scheduler's setting governs tier locking";
  }

  host_valid_.assign(subgroups_.size(), 0);

  // The pool holds only the baseline's FP32 gradient-flush scratch. Those
  // deposits run one at a time on the D2H channel, so a slab of two
  // leases never blocks acquire() and — the gated invariant — never falls
  // back to the heap.
  BufferPool::Options pool_opts;
  const u64 lease_bytes =
      (max_real_elems_ * sizeof(f32) + pool_opts.granule - 1) /
      pool_opts.granule * pool_opts.granule;
  pool_opts.slab_bytes = 2 * lease_bytes;
  scratch_ = std::make_unique<BufferPool>(pool_opts);
  slots_.resize(subgroups_.size());
  if (!opts_.delayed_grad_conversion) {
    for (auto& s : slots_) s.grads_fp32.reserve(max_real_elems_);
  }
}

OffloadEngine::~OffloadEngine() {
  try {
    wait_gradient_io();
  } catch (...) {
    // Destruction must not throw; outstanding failures were the caller's to
    // collect via wait_gradient_io().
  }
}

std::string OffloadEngine::state_key(u32 id) const {
  return tenant_key(Subgroup::key(ctx_.rank, id));
}

void OffloadEngine::reset_slots(u32 n) {
  if (slots_.size() < n) slots_.resize(n);
  for (u32 i = 0; i < n; ++i) {
    UpdateSlot& s = slots_[i];
    s.id = 0;
    s.cache_hit = false;
    s.fetch_done = std::future<void>();
    s.fetch_seconds = 0;
    s.fetch_sim_bytes = 0;
    // grads_fp32 keeps its reserved capacity — the reuse is the point.
  }
}

void OffloadEngine::poison_host_state(Subgroup& sg) {
  // Host copies whose tier copy became authoritative are poisoned so that
  // any code path consuming stale state (instead of re-fetching) fails
  // loudly in tests. The header, and with it the step, stays valid.
  const auto state = sg.state();
  std::fill(state.begin(), state.end(),
            std::numeric_limits<f32>::quiet_NaN());
}

IoRequest OffloadEngine::state_write(u32 id, IoPriority priority) {
  Subgroup& sg = *subgroups_[id];
  IoRequest req = IoRequest::tier_write(
      state_key(id), placement_->path_for(id), sg.sim_state_bytes(), priority);
  req.src = sg.image();
  return req;
}

std::future<void> OffloadEngine::store_initial_state(u32 id) {
  IoRequest req = state_write(id, IoPriority::kCheckpoint);
  req.on_complete = [this, id](const IoResult&) {
    poison_host_state(*subgroups_[id]);
  };
  return submit_io(std::move(req));
}

std::function<u64(IoChannel&)> OffloadEngine::deposit_link_work(
    u32 id, bool final_micro_step, std::shared_future<void> host_part) {
  // Baseline path only: upscale to FP32 on the host and flush the FP32
  // gradients to third-level storage during the backward pass. MLP-Offload
  // skips this entirely (design principle 4). The flush is a nested tier
  // request so it queues on the path's write channel at kGradDeposit
  // priority; the link stays blocked until it lands, which models the
  // baseline's backward-phase I/O stall. The flush records its own
  // bytes/time — the link request reports only the link transfer.
  if (opts_.delayed_grad_conversion || !final_micro_step) return {};
  const u64 sim_params = subgroups_[id]->sim_params();
  const u64 real_elems = subgroups_[id]->real_elems();
  return [this, id, sim_params, real_elems,
          host = std::move(host_part)](IoChannel& link) -> u64 {
    link.transfer(sim_params * kFp16Bytes);
    host.get();  // the accumulated FP16 gradients are complete
    ctx_.clock->sleep_for(opts_.convert.seconds_for_params(sim_params));
    auto fp32 = std::make_shared<BufferPool::Lease>(
        scratch_->acquire(real_elems * sizeof(f32)));
    accum_->upscale_into(id, fp32->as<f32>(), ctx_.cpu_pool);

    const std::size_t path = placement_->path_for(id);
    const u64 grad_sim = sim_params * kFp32Bytes;
    IoRequest flush = IoRequest::tier_write(grad_key(id), path, grad_sim,
                                            IoPriority::kGradDeposit);
    flush.work = [fp32, grad_sim, key = flush.key](IoChannel& chan) -> u64 {
      chan.write(key, fp32->bytes(), grad_sim);
      return grad_sim;
    };
    submit_io(std::move(flush)).get();
    return sim_params * kFp16Bytes;
  };
}

std::future<void> OffloadEngine::submit_fetch(UpdateSlot& slot) {
  Subgroup& sg = *subgroups_[slot.id];
  std::string key = state_key(slot.id);
  // Routing hint only; an unknown key routes to path 0 and fails there
  // with the tier's own "no object" error.
  const std::size_t loc = ctx_.vtier->locate(key);

  IoRequest req = IoRequest::tier_read(
      std::move(key), sg.sim_state_bytes(), IoPriority::kDemandPrefetch,
      loc == VirtualTier::npos ? IoRequest::kAutoPath : loc);
  if (opts_.delayed_grad_conversion) {
    // Zero copy: the tier writes straight into the subgroup's image.
    req.dst = sg.image();
  } else {
    // DeepSpeed behaviour: the FP32 gradients flushed during the backward
    // pass ride back with the subgroup (16 B/param total fetch payload).
    req.work = [this, &slot, &sg, key = req.key](IoChannel& chan) -> u64 {
      chan.read(key, sg.image(), sg.sim_state_bytes());
      slot.grads_fp32.resize(sg.real_elems());
      std::span<u8> bytes(reinterpret_cast<u8*>(slot.grads_fp32.data()),
                          slot.grads_fp32.size() * sizeof(f32));
      const u64 grad_sim = sg.sim_params() * kFp32Bytes;
      chan.read(grad_key(slot.id), bytes, grad_sim);
      chan.erase(grad_key(slot.id));
      return sg.sim_state_bytes() + grad_sim;
    };
  }
  // Completion checks the header the read brought in, then feeds the
  // policy's bandwidth feedback: service time includes the lock hand-off,
  // matching how the paper's model sees path contention.
  req.on_complete = [this, &slot, &sg, loc,
                     prior_step = sg.step()](const IoResult& r) {
    sg.check_loaded_header(prior_step);
    slot.fetch_seconds = r.service_seconds;
    slot.fetch_sim_bytes = r.sim_bytes;
    placement_->observe(loc == VirtualTier::npos ? 0 : loc, r.sim_bytes,
                        r.service_seconds, r.queue_wait_seconds);
  };
  return submit_io(std::move(req));
}

std::future<void> OffloadEngine::flush_subgroup_async(
    u32 id, std::vector<SubgroupTrace>* traces) {
  host_valid_[id] = 0;
  cache_.erase(id);
  // The write goes to the subgroup's new tier t (Alg. 1 l.9) straight from
  // its image; the image stays untouched until the bytes have landed.
  IoRequest req = state_write(id, IoPriority::kLazyFlush);
  req.on_complete = [this, id, path = req.path, sim = req.sim_bytes,
                     traces](const IoResult& r) {
    // Poisoning runs after the transfer, outside the service time the
    // placement EMA sees.
    poison_host_state(*subgroups_[id]);
    placement_->observe(path, sim, r.service_seconds, r.queue_wait_seconds);
    if (traces != nullptr) {
      (*traces)[id].write_seconds += r.service_seconds;
      (*traces)[id].sim_bytes_written += sim;
    }
  };
  return submit_io(std::move(req));
}

void OffloadEngine::update_phase(u64 iteration, IterationReport& report) {
  const u32 n = num_subgroups();
  const std::vector<u32> order = plan_update(iteration, cache_.resident());

  std::vector<SubgroupTrace> traces(n);
  for (u32 id = 0; id < n; ++id) traces[id].subgroup_id = id;

  reset_slots(n);
  std::vector<UpdateSlot>& slots = slots_;
  // Host I/O buffers are a hard budget (paper §3.1: "three subgroups at a
  // time: one prefetched, one actively updated, one flushed back"). A new
  // prefetch may only be issued once the oldest outstanding flush has
  // drained and freed its buffer — this backpressure is what couples the
  // read stream to the slow write stream and produces the oscillating
  // effective-throughput pattern of Fig. 5.
  struct Flush {
    u32 id;
    std::future<void> done;
  };
  std::deque<Flush> inflight_flushes;
  const std::size_t max_inflight_flushes = 1;
  const auto retire_oldest_flush = [&] {
    Flush& f = inflight_flushes.front();
    if (f.done.valid()) f.done.get();
    inflight_flushes.pop_front();
  };

  u32 next_issue = 0;
  const auto issue = [&](u32 pos) {
    UpdateSlot& slot = slots[pos];
    slot.id = order[pos];
    if (use_host_cache_ && host_valid_[slot.id] && cache_.contains(slot.id)) {
      slot.cache_hit = true;
      cache_.touch(slot.id);
      return;
    }
    slot.cache_hit = false;
    while (inflight_flushes.size() > max_inflight_flushes) {
      retire_oldest_flush();
    }
    // Read after write: a subgroup evicted earlier in this phase may be
    // re-fetched while its flush is still in flight. The fetch must wait
    // for it — it would read the stale tier copy, and land in the image
    // the flush is still writing out and about to poison.
    for (Flush& f : inflight_flushes) {
      if (f.id == slot.id && f.done.valid()) f.done.get();
    }
    slot.fetch_done = submit_fetch(slot);
  };

  // Prime the pipeline: the subgroup being updated plus prefetch_ahead
  // outstanding fetches (the paper's three host buffers: one flushing, one
  // updating, one prefetching, for prefetch_ahead == 1).
  const u32 window = 1 + opts_.prefetch_ahead;
  while (next_issue < n && next_issue < window) issue(next_issue++);

  IoBatch h2d_batch;

  // Exception safety: fetch/flush tasks capture pointers into `slots` and
  // `traces`. If the pipeline throws we must drain every outstanding task
  // before unwinding, or the I/O threads would write through dangling
  // pointers.
  const auto drain_outstanding = [&]() noexcept {
    for (auto& s : slots) {
      if (s.fetch_done.valid()) {
        try {
          s.fetch_done.get();
        } catch (...) {
        }
      }
    }
    for (auto& f : inflight_flushes) {
      if (f.done.valid()) {
        try {
          f.done.get();
        } catch (...) {
        }
      }
    }
    inflight_flushes.clear();
    try {
      h2d_batch.wait_all();
    } catch (...) {
    }
  };

  const auto pipeline = [&] {
  for (u32 pos = 0; pos < n; ++pos) {
    UpdateSlot& slot = slots[pos];
    Subgroup& sg = *subgroups_[slot.id];
    SubgroupTrace& trace = traces[slot.id];

    if (slot.cache_hit) {
      if (!host_valid_[slot.id]) {
        // Guarded against by the validated cache capacity; a violation
        // here would mean consuming a poisoned, mid-flush subgroup.
        throw std::logic_error(
            "OffloadEngine: cached subgroup evicted before use");
      }
      trace.host_cache_hit = true;
      if (!opts_.delayed_grad_conversion) {
        // The optimizer state was cached, but the baseline gradient path
        // flushed this subgroup's FP32 gradients to storage during the
        // backward pass — they still have to come back (4 B/param).
        const std::string gkey = grad_key(slot.id);
        const std::size_t loc = ctx_.vtier->locate(gkey);
        if (loc == VirtualTier::npos) {
          throw std::runtime_error("OffloadEngine: gradients missing for " +
                                   gkey);
        }
        const u64 grad_sim = sg.sim_params() * kFp32Bytes;
        IoRequest req = IoRequest::tier_read(gkey, grad_sim,
                                             IoPriority::kDemandPrefetch, loc);
        req.work = [this, &slot, &sg, gkey, grad_sim](IoChannel& chan) -> u64 {
          slot.grads_fp32.resize(sg.real_elems());
          std::span<u8> bytes(reinterpret_cast<u8*>(slot.grads_fp32.data()),
                              slot.grads_fp32.size() * sizeof(f32));
          chan.read(gkey, bytes, grad_sim);
          chan.erase(gkey);
          return grad_sim;
        };
        req.on_complete = [&trace](const IoResult& r) {
          trace.read_seconds = r.service_seconds;
          trace.sim_bytes_read = r.sim_bytes;
        };
        submit_io(std::move(req)).get();
      }
    } else {
      slot.fetch_done.get();  // f2h_prefetch_wait_subgrp (Alg. 1 l.5)
      host_valid_[slot.id] = 1;
      trace.read_seconds = slot.fetch_seconds;
      trace.sim_bytes_read = slot.fetch_sim_bytes;
    }

    // Gradients: delayed in-place FP16->FP32 conversion into the scratch,
    // or, for the baseline, the FP32 gradients arrived with the fetch.
    trace.compute_seconds =
        opts_.delayed_grad_conversion
            ? update_subgroup(slot.id, fp32_scratch_, true)
            : update_subgroup(slot.id, slot.grads_fp32, false);

    // async_h2d_transfer of the downscaled FP16 parameters (Alg. 1 l.8).
    h2d_batch.add(push_fp16_params(slot.id));

    // Lazy flush through the host cache (Alg. 1 l.9-10) or eager flush for
    // the thrashing baseline — the order policy selects the discipline.
    if (use_host_cache_) {
      host_valid_[slot.id] = 1;
      if (const auto evicted = cache_.insert(slot.id)) {
        inflight_flushes.push_back(
            {*evicted, flush_subgroup_async(*evicted, &traces)});
      }
    } else {
      inflight_flushes.push_back(
          {slot.id, flush_subgroup_async(slot.id, &traces)});
    }

    // async_f2h_prefetch of the next subgroup (Alg. 1 l.11).
    if (next_issue < n) issue(next_issue++);
  }

  while (!inflight_flushes.empty()) retire_oldest_flush();
  h2d_batch.wait_all();
  };  // pipeline

  try {
    pipeline();
  } catch (...) {
    // Queued demand reads are abandoned before draining: they are safe to
    // cancel (re-fetchable on retry or restore) and on a fail-stopped tier
    // each would otherwise dispatch serially just to fail. Queued writes
    // stay — a flush may carry the only copy of an updated subgroup. The
    // sweep is tenant-scoped: on a shared scheduler a neighbour job's
    // queued prefetches are not ours to abandon.
    ctx_.io->cancel_queued(IoPriority::kDemandPrefetch, ctx_.tenant);
    drain_outstanding();
    throw;
  }

  report.traces.reserve(n);
  for (u32 pos = 0; pos < n; ++pos) fold_trace(report, traces[order[pos]]);
}

Subgroup OffloadEngine::snapshot_subgroup(u32 id) const {
  const Subgroup& sg = *subgroups_.at(id);
  if (host_valid_[id]) return sg;
  Subgroup copy(sg.id(), sg.sim_params(), sg.elem_scale());
  const std::string key = state_key(id);
  if (ctx_.vtier->locate(key) == VirtualTier::npos) {
    throw std::runtime_error("snapshot_subgroup: " + key + " not on any tier");
  }
  // Untimed inspection read: bypass the throttle via the tier's peek path.
  ctx_.vtier->peek(key, copy.image());
  copy.check_loaded_header(sg.step());
  return copy;
}

u64 OffloadEngine::state_checksum() const {
  // Host copies may be poisoned: read each subgroup where it lives.
  u64 sum = 0;
  for (u32 id = 0; id < num_subgroups(); ++id) {
    sum += snapshot_subgroup(id).checksum();  // commutative on purpose
  }
  return sum;
}

Engine::Distribution OffloadEngine::distribution() const {
  Distribution dist;
  dist.path_sim_bytes.assign(ctx_.vtier->path_count(), 0);
  for (u32 id = 0; id < num_subgroups(); ++id) {
    const Subgroup& sg = *subgroups_[id];
    if (host_valid_[id]) {
      dist.host_sim_bytes += sg.sim_state_bytes();
      continue;
    }
    const std::size_t loc = ctx_.vtier->locate(state_key(id));
    if (loc != VirtualTier::npos) {
      dist.path_sim_bytes[loc] += sg.sim_state_bytes();
    }
  }
  return dist;
}

std::vector<u32> OffloadEngine::host_resident() const {
  return cache_.resident();
}

bool OffloadEngine::on_persistent_path(u32 id) const {
  if (host_valid_[id]) return false;
  const std::size_t loc = ctx_.vtier->locate(state_key(id));
  return loc != VirtualTier::npos && ctx_.vtier->path(loc).persistent();
}

void OffloadEngine::restore_state(u32 id, std::span<const u8> serialized) {
  subgroups_.at(id)->deserialize(serialized);  // validates header identity
  // Write through to the assigned path, like the initial store; the
  // restored image becomes the authoritative copy and any cached state is
  // dropped. Checkpoint-class traffic: it must not starve demand fetches
  // of a concurrent update.
  store_initial_state(id).get();
  host_valid_[id] = 0;
  cache_.erase(id);
}

}  // namespace mlpo
