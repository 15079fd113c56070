// Trainer facade + JSON configuration surface.
#include <gtest/gtest.h>

#include "runtime/trainer.hpp"

namespace mlpo {
namespace {

TrainerConfig fast_config() {
  TrainerConfig cfg;
  cfg.model = ModelConfig{"tiny", 4, 4096, 32};
  cfg.elem_scale = 65536;
  cfg.time_scale = 2000.0;
  cfg.host_cache_override = 2;
  return cfg;
}

TEST(Trainer, EndToEndRun) {
  Trainer trainer(fast_config());
  trainer.initialize();
  const auto reports = trainer.run(3, 1);
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) {
    EXPECT_GT(r.iteration_seconds(), 0.0);
    EXPECT_EQ(r.params_updated, fast_config().model.parameters());
  }
}

TEST(Trainer, DistributionConservesBytes) {
  Trainer trainer(fast_config());
  trainer.initialize();
  trainer.run(2, 0);
  const auto dist = trainer.distribution();
  u64 total = dist.host_sim_bytes;
  for (const u64 b : dist.path_sim_bytes) total += b;
  EXPECT_EQ(total,
            fast_config().model.parameters() * kOptimStateBytesPerParam);
}

TEST(TrainerConfigJson, DefaultsFromEmptyObject) {
  const auto cfg = trainer_config_from_json(std::string("{}"));
  EXPECT_EQ(cfg.model.name, "40B");
  EXPECT_EQ(cfg.nodes, 1u);
  EXPECT_TRUE(cfg.engine.multipath);
}

TEST(TrainerConfigJson, FullDocumentParsed) {
  const auto cfg = trainer_config_from_json(std::string(R"({
    "model": "70B",
    "testbed": "testbed2",
    "nodes": 2,
    "microbatch": 2,
    "accum_steps": 4,
    "subgroup_params": 50000000,
    "elem_scale": 4096,
    "time_scale": 500,
    "mlp_offload": {"enabled": true, "tier_exclusive_locking": false}
  })"));
  EXPECT_EQ(cfg.model.name, "70B");
  EXPECT_EQ(cfg.testbed.gpus_per_node, 4u);
  EXPECT_EQ(cfg.testbed.cpu_cores, 32u);  // testbed2
  EXPECT_EQ(cfg.nodes, 2u);
  EXPECT_EQ(cfg.microbatch, 2u);
  EXPECT_EQ(cfg.accum_steps, 4u);
  EXPECT_EQ(cfg.subgroup_params, 50'000'000u);
  EXPECT_EQ(cfg.elem_scale, 4096u);
  EXPECT_EQ(cfg.time_scale, 500.0);
  EXPECT_TRUE(cfg.engine.multipath);
  EXPECT_FALSE(cfg.engine.tier_exclusive_locking);
}

TEST(TrainerConfigJson, DisabledSelectsBaselinePreset) {
  const auto cfg = trainer_config_from_json(
      std::string(R"({"mlp_offload": {"enabled": false}})"));
  EXPECT_FALSE(cfg.engine.multipath);
  EXPECT_EQ(cfg.engine.update_order_policy, "ascending");
  EXPECT_EQ(cfg.engine.placement_policy, "eq1_static");
  EXPECT_FALSE(cfg.engine.delayed_grad_conversion);
  EXPECT_FALSE(cfg.engine.tier_exclusive_locking);
}

// Expect `json` to be rejected with an error naming `bad_key` and listing
// the known mlp_offload keys.
void expect_unknown_key_rejected(const std::string& json,
                                 const std::string& bad_key) {
  try {
    trainer_config_from_json(json);
    FAIL() << "expected invalid_argument for key " << bad_key;
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'" + bad_key + "'"), std::string::npos) << what;
    EXPECT_NE(what.find("prefetch_ahead"), std::string::npos)
        << "error must list the known keys: " << what;
  }
}

TEST(TrainerConfigJson, LegacyCacheFriendlyOrderIsRejected) {
  // The legacy boolean spelling is gone; update_order_policy names the
  // schedule instead.
  expect_unknown_key_rejected(
      R"({"mlp_offload": {"enabled": false, "cache_friendly_order": true}})",
      "cache_friendly_order");
}

TEST(TrainerConfigJson, LegacyAdaptivePlacementIsRejected) {
  EXPECT_EQ(trainer_config_from_json(std::string("{}"))
                .engine.placement_policy,
            "adaptive_ema");
  expect_unknown_key_rejected(
      R"({"mlp_offload": {"adaptive_placement": false}})",
      "adaptive_placement");
}

TEST(TrainerConfigJson, UnknownMlpOffloadKeysAreRejected) {
  // The removed execution-mode keys must not silently run the pipeline,
  // and a typo must not silently keep the default.
  expect_unknown_key_rejected(R"({"mlp_offload": {"execution": "graph"}})",
                              "execution");
  expect_unknown_key_rejected(R"({"mlp_offload": {"graph_workers": 4}})",
                              "graph_workers");
  expect_unknown_key_rejected(R"({"mlp_offload": {"prefetch_ahaed": 2}})",
                              "prefetch_ahaed");
}

TEST(TrainerConfigJson, ReadmeJsonBlockParses) {
  // The "mlp_offload" block from README.md's "Presets and config JSON"
  // section, key for key: every documented key must still parse.
  const auto cfg = trainer_config_from_json(std::string(R"({
    "mlp_offload": {
      "preset": "mlp_offload",
      "engine": "offload",
      "placement_policy": "adaptive_ema",
      "update_order_policy": "alternating_cache_friendly",
      "multipath": true,
      "delayed_grad_conversion": true,
      "tier_exclusive_locking": true,
      "prefetch_ahead": 1,
      "host_cache_subgroups": 3
    }
  })"));
  EXPECT_EQ(cfg.engine.engine, "offload");
  EXPECT_EQ(cfg.engine.prefetch_ahead, 1u);
  EXPECT_EQ(cfg.engine.host_cache_subgroups, 3u);
  EXPECT_TRUE(trainer_config_from_json(
                  std::string(R"({"mlp_offload": {"enabled": true}})"))
                  .engine.multipath);
}

TEST(TrainerConfigJson, PolicyNamesSelectedDirectly) {
  const auto cfg = trainer_config_from_json(std::string(R"({
    "mlp_offload": {
      "placement_policy": "bandwidth_greedy",
      "update_order_policy": "host_resident_first"
    }
  })"));
  EXPECT_EQ(cfg.engine.placement_policy, "bandwidth_greedy");
  EXPECT_EQ(cfg.engine.update_order_policy, "host_resident_first");
}

TEST(TrainerConfigJson, PresetAndEngineKindKeys) {
  const auto cfg = trainer_config_from_json(std::string(
      R"({"mlp_offload": {"preset": "mp_skip_grads"}})"));
  EXPECT_TRUE(cfg.engine.delayed_grad_conversion);
  EXPECT_FALSE(cfg.engine.tier_exclusive_locking);

  const auto cpu = trainer_config_from_json(
      std::string(R"({"mlp_offload": {"engine": "cpu_only"}})"));
  EXPECT_EQ(cpu.engine.engine, "cpu_only");
}

TEST(TrainerConfigJson, UnknownPolicyNamesAreLoud) {
  try {
    trainer_config_from_json(std::string(
        R"({"mlp_offload": {"placement_policy": "psychic"}})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("psychic"), std::string::npos) << what;
    EXPECT_NE(what.find("eq1_static"), std::string::npos)
        << "error must list registered policies: " << what;
  }
  EXPECT_THROW(trainer_config_from_json(std::string(
                   R"({"mlp_offload": {"update_order_policy": "random"}})")),
               std::invalid_argument);
  EXPECT_THROW(trainer_config_from_json(std::string(
                   R"({"mlp_offload": {"preset": "turbo"}})")),
               std::invalid_argument);
  EXPECT_THROW(trainer_config_from_json(std::string(
                   R"({"mlp_offload": {"engine": "tensornvme"}})")),
               std::invalid_argument);
}

TEST(TrainerConfigJson, NoPfsForcesSinglePath) {
  const auto cfg =
      trainer_config_from_json(std::string(R"({"attach_pfs": false})"));
  EXPECT_FALSE(cfg.attach_pfs);
  EXPECT_FALSE(cfg.engine.multipath);
}

TEST(TrainerConfigJson, ErrorsAreLoud) {
  EXPECT_THROW(trainer_config_from_json(std::string("[]")),
               std::invalid_argument);
  EXPECT_THROW(trainer_config_from_json(std::string(R"({"model": "3B"})")),
               std::out_of_range);
  EXPECT_THROW(
      trainer_config_from_json(std::string(R"({"testbed": "laptop"})")),
      std::invalid_argument);
  EXPECT_THROW(trainer_config_from_json(std::string("not json")),
               json::ParseError);
}

TEST(TrainerConfigJson, ConfiguredTrainerRuns) {
  auto cfg = trainer_config_from_json(std::string(R"({
    "elem_scale": 65536, "time_scale": 2000,
    "mlp_offload": {"enabled": true}
  })"));
  cfg.model = ModelConfig{"tiny", 4, 4096, 32};
  cfg.host_cache_override = 2;
  Trainer trainer(cfg);
  trainer.initialize();
  const auto reports = trainer.run(1);
  EXPECT_EQ(reports.size(), 1u);
}

}  // namespace
}  // namespace mlpo
