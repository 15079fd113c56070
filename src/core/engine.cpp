#include "core/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/cpu_only_engine.hpp"
#include "core/offload_engine.hpp"
#include "core/tensor_nvme_engine.hpp"
#include "io/io_scheduler.hpp"
#include "policy/policy_registry.hpp"
#include "tiers/virtual_tier.hpp"

namespace mlpo {

void EngineOptions::validate() const {
  // Resolving the names validates them (unknown -> invalid_argument
  // listing the registered policies).
  validate_common();
  make_placement_policy(placement_policy);
  validate_resolved(*make_update_order_policy(update_order_policy));
}

void EngineOptions::validate_common() const {
  if (cpu_update_rate <= 0) {
    throw std::invalid_argument(
        "EngineOptions: cpu_update_rate=" + std::to_string(cpu_update_rate) +
        " must be > 0 (simulated params per vsecond)");
  }
  if (elem_scale == 0) {
    throw std::invalid_argument(
        "EngineOptions: elem_scale must be >= 1 (simulated params per real "
        "element)");
  }
}

void EngineOptions::validate_resolved(const UpdateOrderPolicy& order) const {
  if (order.uses_host_cache()) {
    if (host_cache_subgroups == 0) {
      throw std::invalid_argument(
          "EngineOptions: update_order_policy '" + update_order_policy +
          "' exploits the host cache but host_cache_subgroups is 0; pick a "
          "non-caching policy (e.g. 'ascending') or grant cache capacity");
    }
    // A cached subgroup is touched (made MRU) when its prefetch slot is
    // issued, up to prefetch_ahead positions before it is processed. The
    // cache must be deep enough that the insertions from those intervening
    // positions cannot evict it again, or a hit would consume poisoned
    // state mid-flush.
    if (host_cache_subgroups < prefetch_ahead + 1) {
      throw std::invalid_argument(
          "EngineOptions: host_cache_subgroups=" +
          std::to_string(host_cache_subgroups) +
          " must be >= prefetch_ahead+1 (=" +
          std::to_string(prefetch_ahead + 1) +
          ") for cache-exploiting order policy '" + update_order_policy +
          "'");
    }
  } else if (prefetch_ahead == 0) {
    // A non-caching order policy runs the engine with a zero-capacity
    // cache no matter what the knob says, so the "empty host cache" half
    // of this condition is decided by the policy, not host_cache_subgroups.
    throw std::invalid_argument(
        "EngineOptions: prefetch_ahead=0 with the non-caching order policy "
        "'" + update_order_policy +
        "' leaves the pipeline with neither overlap nor reuse; set "
        "prefetch_ahead >= 1 or pick a cache-exploiting order policy");
  }
}

EngineOptions EngineOptions::preset(const std::string& name) {
  // Every bundle is expressed as a delta on the defaults, so a new
  // EngineOptions field automatically participates in all presets.
  EngineOptions o;
  if (name == "mlp_offload") return o;
  if (name == "deepspeed_zero3") {
    o.multipath = false;
    o.placement_policy = "eq1_static";  // single path: nothing to adapt
    o.update_order_policy = "ascending";
    o.delayed_grad_conversion = false;
    o.tier_exclusive_locking = false;
    return o;
  }
  if (name == "multipath_caching") {  // Fig. 15 step 1
    o.delayed_grad_conversion = false;
    o.tier_exclusive_locking = false;
    return o;
  }
  if (name == "mp_skip_grads") {  // Fig. 15 step 2
    o.tier_exclusive_locking = false;
    return o;
  }
  if (name == "mlp_offload_static") {  // adaptive-model ablation arm
    o.placement_policy = "eq1_static";
    return o;
  }
  if (name == "cpu_only") {
    o.engine = "cpu_only";
    return o;
  }
  if (name == "tensor_nvme") {
    o.engine = "tensor_nvme";
    return o;
  }
  std::string known;
  for (const auto& p : preset_names()) known += " " + p;
  throw std::invalid_argument("EngineOptions: unknown preset '" + name +
                              "' (known:" + known + ")");
}

std::vector<std::string> EngineOptions::preset_names() {
  return {"deepspeed_zero3", "multipath_caching", "mp_skip_grads",
          "mlp_offload",     "mlp_offload_static", "cpu_only",
          "tensor_nvme"};
}

EngineOptions EngineOptions::deepspeed_zero3() {
  return preset("deepspeed_zero3");
}

EngineOptions EngineOptions::mlp_offload() { return preset("mlp_offload"); }

Engine::Engine(const EngineContext& ctx, const EngineOptions& opts,
               const ShardLayout& layout)
    : ctx_(ctx), opts_(opts), layout_(layout) {
  opts_.validate_common();
  if (ctx_.clock == nullptr || ctx_.grads == nullptr) {
    throw std::invalid_argument(
        "Engine: EngineContext clock and grads are required");
  }
  const std::size_t n = layout_.subgroup_sizes.size();
  // Images start on cache-line boundaries so neighbouring subgroups never
  // share a line between the update thread and an I/O thread.
  constexpr u64 kImageAlign = 64;
  std::vector<u64> offsets(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const u64 bytes =
        Subgroup::image_bytes(layout_.subgroup_sizes[i], opts_.elem_scale);
    offsets[i + 1] =
        offsets[i] + (bytes + kImageAlign - 1) / kImageAlign * kImageAlign;
  }
  state_slab_ = AlignedBuffer::populated(offsets[n]);
  subgroups_.reserve(n);
  std::vector<u64> accum_elems;
  accum_elems.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Subgroup identity is the layout's global id (== the local index for
    // classic layouts): checkpoints and checksums stay comparable across
    // elastic re-shards. Engine-internal indexing stays local throughout.
    const u64 sim = layout_.subgroup_sizes[i];
    subgroups_.push_back(std::make_unique<Subgroup>(
        layout_.global_id(static_cast<u32>(i)), sim, opts_.elem_scale,
        state_slab_.bytes().subspan(
            offsets[i], Subgroup::image_bytes(sim, opts_.elem_scale))));
    accum_elems.push_back(subgroups_.back()->real_elems());
    max_real_elems_ = std::max(max_real_elems_, accum_elems.back());
  }
  accum_ = std::make_unique<GradAccumulator>(accum_elems);
  fp32_scratch_.reserve(max_real_elems_);
}

Engine::~Engine() {
  try {
    wait_gradient_io();
  } catch (...) {
    // Destruction must not throw; failures were wait_gradient_io()'s to
    // report.
  }
}

void Engine::initialize() {
  if (initialized_) throw std::logic_error("Engine: double initialize");
  IoBatch stored;
  for (u32 id = 0; id < num_subgroups(); ++id) {
    Subgroup& sg = *subgroups_[id];
    // Content is keyed on the world-size-independent identity (canonical
    // rank + global id for elastic layouts), so elastic restarts train on
    // bit-identical state, and every engine starts from the same bits.
    Subgroup::deterministic_param_init(layout_.content_rank(), sg.id(),
                                       sg.params());
    std::future<void> done = store_initial_state(id);
    if (done.valid()) stored.add(std::move(done));
  }
  stored.wait_all();
  initialized_ = true;
}

IterationReport Engine::run_update(u64 iteration) {
  if (!initialized_) {
    throw std::logic_error("Engine: run_update before initialize");
  }
  const f64 phase_start = ctx_.clock->now();
  IterationReport report;
  report.iteration = iteration;
  update_phase(iteration, report);
  report.params_updated = layout_.shard_params;
  report.update_seconds = ctx_.clock->now() - phase_start;
  return report;
}

Subgroup Engine::snapshot_subgroup(u32 id) const { return *subgroups_.at(id); }

u64 Engine::state_checksum() const {
  u64 sum = 0;
  for (const auto& sg : subgroups_) sum += sg->checksum();  // commutative
  return sum;
}

std::string Engine::tenant_key(std::string key) const {
  if (ctx_.tenant == 0) return key;
  return "t" + std::to_string(ctx_.tenant) + "/" + key;
}

std::string Engine::grad_key(u32 id) const {
  return tenant_key("grad/" + std::to_string(ctx_.rank) + "/" +
                    std::to_string(id));
}

std::future<void> Engine::submit_io(IoRequest req) {
  req.tenant = ctx_.tenant;
  return ctx_.io->submit(std::move(req));
}

void Engine::deposit_gradients_async(u64 sample_index, u32 subgroup_id,
                                     bool first_micro_step,
                                     bool final_micro_step) {
  const u64 link_bytes = subgroups_.at(subgroup_id)->sim_params() * kFp16Bytes;
  // The host part joins the batch before anything else can throw, so
  // wait_gradient_io() and the destructors always wait for its writes.
  std::shared_future<void> host =
      deposit_fp16_async(sample_index, subgroup_id, first_micro_step);
  gradient_io_.add(host);
  // The FP16 gradients cross PCIe whatever holds the optimizer state; the
  // serial link holds only the modelled link time.
  if (ctx_.io == nullptr) return;
  IoRequest req = IoRequest::link_transfer(IoTarget::kD2HLink,
                                           grad_key(subgroup_id), link_bytes,
                                           IoPriority::kGradDeposit);
  req.work = deposit_link_work(subgroup_id, final_micro_step, std::move(host));
  gradient_io_.add(submit_io(std::move(req)));
}

void Engine::wait_gradient_io() { gradient_io_.wait_all(); }

std::shared_future<void> Engine::deposit_fp16_async(u64 sample_index, u32 id,
                                                    bool first_micro_step) {
  const auto host_part = [this, sample_index, id, first_micro_step] {
    deposit_fp16(sample_index, id, first_micro_step);
  };
  if (ctx_.cpu_pool != nullptr) {
    return ctx_.cpu_pool->submit(host_part).share();
  }
  std::packaged_task<void()> inline_part(host_part);
  inline_part();
  return inline_part.get_future().share();
}

void Engine::deposit_fp16(u64 sample_index, u32 id, bool first_micro_step) {
  const auto generate = [&](std::span<u16> out) {
    ctx_.grads->generate_fp16(layout_.content_rank(), layout_.global_id(id),
                              sample_index, out);
  };
  if (first_micro_step) {
    generate(accum_->fp16(id));  // the bits store() would copy there
    return;
  }
  // A thread runs one host part at a time, so one scratch per thread
  // suffices; it grows to the largest subgroup once and is reused.
  thread_local std::vector<u16> scratch;
  scratch.resize(accum_->elems(id));
  generate(scratch);
  // From a pool worker this runs inline (ThreadPool::parallel_for).
  accum_->accumulate(id, scratch, ctx_.cpu_pool);
}

f64 Engine::update_subgroup(u32 id, std::vector<f32>& grads_fp32,
                            bool upscale) {
  Subgroup& sg = *subgroups_[id];
  SimTimer kernel_timer(*ctx_.clock);
  if (upscale) {
    // Delayed in-place FP16 -> FP32 conversion (Alg. 1 l.6).
    grads_fp32.resize(sg.real_elems());
    accum_->upscale_into(id, grads_fp32, ctx_.cpu_pool);
    ctx_.clock->sleep_for(opts_.convert.seconds_for_params(sg.sim_params()));
  }
  // cpu_update_kernel (Alg. 1 l.7): the real Adam math on the scale-reduced
  // arrays, then the residual simulated compute charge.
  sg.set_step(sg.step() + 1);
  adam_update(opts_.adam, sg.params(), sg.momentum(), sg.variance(),
              grads_fp32, sg.step(), ctx_.cpu_pool);
  const f64 budget = static_cast<f64>(sg.sim_params()) / opts_.cpu_update_rate;
  const f64 real = kernel_timer.elapsed();
  if (budget > real) ctx_.clock->sleep_for(budget - real);
  // Accounting uses the calibrated cost model: wall-clock noise from the
  // emulation host (scheduler preemption amplified by the time scale) stays
  // in the phase wall time instead of being misattributed to compute.
  return budget;
}

void Engine::fold_trace(IterationReport& report, const SubgroupTrace& trace) {
  report.traces.push_back(trace);
  report.sim_bytes_fetched += trace.sim_bytes_read;
  report.sim_bytes_flushed += trace.sim_bytes_written;
  report.fetch_seconds += trace.read_seconds;
  report.flush_seconds += trace.write_seconds;
  report.update_compute_seconds += trace.compute_seconds;
  if (trace.host_cache_hit) ++report.host_cache_hits;
  ++report.subgroups_processed;
}

TieredEngine::TieredEngine(const EngineContext& ctx,
                           const EngineOptions& opts,
                           const ShardLayout& layout)
    : Engine(ctx, opts, layout),
      placement_(make_placement_policy(opts.placement_policy)),
      order_policy_(make_update_order_policy(opts.update_order_policy)) {
  if (ctx_.vtier == nullptr || ctx_.io == nullptr ||
      ctx_.vtier->path_count() == 0) {
    throw std::invalid_argument(
        "TieredEngine: EngineContext needs io and a vtier with a path");
  }
  std::vector<f64> bws = ctx_.vtier->path_bandwidths();
  if (!opts_.multipath) bws.resize(1);
  placement_->bind(std::move(bws), num_subgroups());
}

std::vector<u32> TieredEngine::plan_update(u64 iteration,
                                           std::span<const u32> residents) {
  const u32 n = num_subgroups();
  placement_->rebalance();
  std::vector<u32> order = order_policy_->order(n, iteration, residents);
  validate_order_permutation(order, n, order_policy_->name());
  return order;
}

std::future<void> TieredEngine::push_fp16_params(u32 id) {
  return submit_io(IoRequest::link_transfer(
      IoTarget::kH2DLink, tenant_key(Subgroup::key(ctx_.rank, id)),
      subgroups_[id]->sim_fp16_param_bytes(), IoPriority::kDemandPrefetch));
}

std::unique_ptr<Engine> make_engine(const EngineContext& ctx,
                                    const EngineOptions& opts,
                                    const ShardLayout& layout) {
  // Validation happens inside each engine's constructor (so direct
  // construction is covered by the same checks).
  if (opts.engine == "offload") {
    return std::make_unique<OffloadEngine>(ctx, opts, layout);
  }
  if (opts.engine == "cpu_only") {
    return std::make_unique<CpuOnlyEngine>(ctx, opts, layout);
  }
  if (opts.engine == "tensor_nvme") {
    return std::make_unique<TensorNvmeEngine>(ctx, opts, layout);
  }
  std::string known;
  for (const auto& k : engine_kind_names()) known += " " + k;
  throw std::invalid_argument("make_engine: unknown engine kind '" +
                              opts.engine + "' (known:" + known + ")");
}

std::vector<std::string> engine_kind_names() {
  return {"offload", "cpu_only", "tensor_nvme"};
}

}  // namespace mlpo
