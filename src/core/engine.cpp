#include "core/engine.hpp"

#include <stdexcept>

#include "core/cpu_only_engine.hpp"
#include "core/offload_engine.hpp"
#include "core/tensor_nvme_engine.hpp"
#include "policy/policy_registry.hpp"

namespace mlpo {

void EngineOptions::validate() const {
  // Resolving the names validates them (unknown -> invalid_argument
  // listing the registered policies).
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
  validate_common();
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
