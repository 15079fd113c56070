#include "runtime/worker.hpp"

namespace mlpo {

Worker::Worker(const SimClock& clock, VirtualTier& vtier, ThreadPool* cpu_pool,
               const GradSource& grads, const TestbedSpec& testbed,
               int worker_id, int rank, const EngineOptions& opts,
               const ShardLayout& layout)
    : clock_(&clock), worker_id_(worker_id), rank_(rank) {
  // The scheduler spawns one dispatch thread per channel (read+write per
  // storage path, D2H, H2D, external), so independent channels stay
  // genuinely concurrent (the multi-path win) while each channel orders
  // its own traffic by priority class. The D2H/H2D links run at the
  // testbed's link bandwidth.
  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = 256;
  io_cfg.tier_exclusive_locking = opts.tier_exclusive_locking;
  io_cfg.worker_id = worker_id;
  io_cfg.link_bandwidth = testbed.d2h_bandwidth;
  io_ = std::make_unique<IoScheduler>(clock, &vtier, io_cfg);
  io_active_ = io_.get();
  build_engine(clock, vtier, cpu_pool, grads, opts, layout);
}

Worker::Worker(const SimClock& clock, VirtualTier& vtier, ThreadPool* cpu_pool,
               const GradSource& grads, IoScheduler& shared_io, u32 tenant,
               int worker_id, int rank, const EngineOptions& opts,
               const ShardLayout& layout)
    : clock_(&clock),
      worker_id_(worker_id),
      rank_(rank),
      tenant_(tenant),
      io_active_(&shared_io) {
  build_engine(clock, vtier, cpu_pool, grads, opts, layout);
}

Worker::~Worker() {
  // Borrowed mode: the shared scheduler outlives this worker, so the
  // engine's in-flight requests must settle before the engine (whose slabs
  // they point into) is destroyed — but waiting on *everyone's* traffic
  // would couple this job's teardown to its neighbours' progress, so the
  // drain is tenant-scoped. Owned mode needs nothing: ~IoScheduler drains.
  if (io_active_ != nullptr && io_ == nullptr) {
    io_active_->drain_tenant(tenant_);
  }
}

void Worker::build_engine(const SimClock& clock, VirtualTier& vtier,
                          ThreadPool* cpu_pool, const GradSource& grads,
                          const EngineOptions& opts,
                          const ShardLayout& layout) {
  EngineContext ctx;
  ctx.clock = &clock;
  ctx.vtier = &vtier;
  ctx.io = io_active_;
  ctx.cpu_pool = cpu_pool;
  ctx.grads = &grads;
  ctx.rank = rank_;
  ctx.tenant = tenant_;
  engine_ = make_engine(ctx, opts, layout);
}

void Worker::run_backward_micro(u64 sample_index, bool first_micro_step,
                                bool final_micro_step, f64 compute_seconds) {
  const u32 n = engine_->num_subgroups();
  if (n == 0) return;
  // Gradients stream out as the backward pass produces them (paper §2:
  // "as the backward pass progresses, the gradients are flushed").
  const f64 per_subgroup = compute_seconds / static_cast<f64>(n);
  try {
    for (u32 id = 0; id < n; ++id) {
      clock_->sleep_for(per_subgroup);
      engine_->deposit_gradients_async(sample_index, id, first_micro_step,
                                       final_micro_step);
    }
  } catch (...) {
    // The deposits made so far still write into the accumulation buffer;
    // a recovery that rewinds this engine must not race them.
    try {
      engine_->wait_gradient_io();
    } catch (...) {
      // The deposit's own failure, rethrown below, is the one to report.
    }
    throw;
  }
  engine_->wait_gradient_io();
}

}  // namespace mlpo
