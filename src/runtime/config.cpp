#include <algorithm>
#include <set>
#include <stdexcept>

#include "policy/policy_registry.hpp"
#include "runtime/trainer.hpp"

namespace mlpo {

namespace {

TestbedSpec testbed_by_name(const std::string& name) {
  if (name == "testbed1") return TestbedSpec::testbed1();
  if (name == "testbed2") return TestbedSpec::testbed2();
  throw std::invalid_argument("config: unknown testbed '" + name + "'");
}

EngineOptions engine_from_json(const json::Value& section) {
  if (!section.is_object()) {
    throw std::invalid_argument("config: \"mlp_offload\" must be an object");
  }
  // Strict like the "jobs" parser: unknown keys abort naming the known set
  // — a typoed "prefetch_ahaed" must not silently keep the default.
  static const std::set<std::string> known{
      "enabled", "preset", "engine", "multipath", "delayed_grad_conversion",
      "tier_exclusive_locking", "placement_policy", "update_order_policy",
      "prefetch_ahead", "host_cache_subgroups"};
  for (const auto& [key, value] : section.as_object()) {
    (void)value;
    if (known.count(key) == 0) {
      std::string known_list;
      for (const auto& k : known) known_list += " " + k;
      throw std::invalid_argument("config: unknown mlp_offload key '" + key +
                                  "' (known:" + known_list + ")");
    }
  }
  // Base bundle: an explicit "preset" wins; otherwise "enabled": false
  // selects the DeepSpeed ZeRO-3 baseline. Individual keys then override
  // (ablation configs).
  EngineOptions opts = EngineOptions::preset(section.string_or(
      "preset",
      section.bool_or("enabled", true) ? "mlp_offload" : "deepspeed_zero3"));
  opts.engine = section.string_or("engine", opts.engine);
  // Like the policy names below, the engine kind fails at parse time with
  // the known set, not later inside worker construction.
  const auto kinds = engine_kind_names();
  if (std::find(kinds.begin(), kinds.end(), opts.engine) == kinds.end()) {
    std::string known;
    for (const auto& k : kinds) known += " " + k;
    throw std::invalid_argument("config: unknown engine kind '" +
                                opts.engine + "' (known:" + known + ")");
  }
  opts.multipath = section.bool_or("multipath", opts.multipath);
  opts.delayed_grad_conversion =
      section.bool_or("delayed_grad_conversion", opts.delayed_grad_conversion);
  opts.tier_exclusive_locking =
      section.bool_or("tier_exclusive_locking", opts.tier_exclusive_locking);

  // Resolve the policy names here so an unknown one aborts at parse time
  // with the registered set in the message, not deep inside engine
  // construction.
  if (section.contains("placement_policy")) {
    opts.placement_policy = section.at("placement_policy").as_string();
    make_placement_policy(opts.placement_policy);
  }
  if (section.contains("update_order_policy")) {
    opts.update_order_policy = section.at("update_order_policy").as_string();
    make_update_order_policy(opts.update_order_policy);
  }
  if (section.contains("prefetch_ahead")) {
    opts.prefetch_ahead = static_cast<u32>(section.at("prefetch_ahead").as_int());
  }
  if (section.contains("host_cache_subgroups")) {
    opts.host_cache_subgroups =
        static_cast<u32>(section.at("host_cache_subgroups").as_int());
  }
  return opts;
}

}  // namespace

TrainerConfig trainer_config_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("config: document must be a JSON object");
  }
  TrainerConfig cfg;
  if (doc.contains("model")) cfg.model = paper_model(doc.at("model").as_string());
  if (doc.contains("testbed")) {
    cfg.testbed = testbed_by_name(doc.at("testbed").as_string());
  }
  cfg.nodes = static_cast<u32>(doc.int_or("nodes", cfg.nodes));
  cfg.microbatch = static_cast<u32>(doc.int_or("microbatch", cfg.microbatch));
  cfg.accum_steps = static_cast<u32>(doc.int_or("accum_steps", cfg.accum_steps));
  cfg.subgroup_params = static_cast<u64>(
      doc.int_or("subgroup_params", static_cast<i64>(cfg.subgroup_params)));
  cfg.elem_scale =
      static_cast<u64>(doc.int_or("elem_scale", static_cast<i64>(cfg.elem_scale)));
  cfg.time_scale = doc.number_or("time_scale", cfg.time_scale);
  if (doc.contains("attach_pfs")) cfg.attach_pfs = doc.at("attach_pfs").as_bool();
  if (doc.contains("mlp_offload")) {
    cfg.engine = engine_from_json(doc.at("mlp_offload"));
  }
  // Storage backend selection; parse-time strict like the policy names
  // (unknown backend kinds / missing roots abort inside the parser).
  if (doc.contains("storage")) {
    cfg.storage = storage_config_from_json(doc.at("storage"));
  }
  if (!cfg.attach_pfs) cfg.engine.multipath = false;
  if (doc.contains("resilience")) {
    cfg.resilience = resilience_config_from_json(doc.at("resilience"));
    // Same parse-time strictness as the policy names: a re-sharding
    // restart without elastic sharding would fail deep inside recovery.
    // Only enforced when the section is live — "enabled": false keeps the
    // rest of the section inert (the A/B-baseline toggle).
    if (cfg.resilience.enabled && cfg.resilience.restart_nodes != 0 &&
        cfg.resilience.restart_nodes != cfg.nodes &&
        !cfg.resilience.elastic_sharding) {
      throw std::invalid_argument(
          "config: resilience.restart_nodes != nodes requires "
          "resilience.elastic_sharding");
    }
  }
  return cfg;
}

TrainerConfig trainer_config_from_json(const std::string& text) {
  return trainer_config_from_json(json::parse(text));
}

}  // namespace mlpo
