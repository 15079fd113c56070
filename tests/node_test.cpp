// NodeSim integration: phase structure, worker coordination, baseline vs
// MLP-Offload behaviour at node level, host-cache budgeting.
#include <gtest/gtest.h>

#include "runtime/node.hpp"

namespace mlpo {
namespace {

// A small model so node tests stay fast: ~1.0B params -> 3 subgroups per
// worker at 100M subgroup size (100+100+~53M).
ModelConfig tiny_model() {
  ModelConfig m{"tiny", 4, 4096, 32};
  EXPECT_GT(m.parameters(), 700'000'000u);
  EXPECT_LT(m.parameters(), 1'200'000'000u);
  return m;
}

NodeConfig base_config(bool mlp) {
  NodeConfig cfg;
  cfg.model = tiny_model();
  cfg.testbed = TestbedSpec::testbed1();
  cfg.engine_opts =
      mlp ? EngineOptions::mlp_offload() : EngineOptions::deepspeed_zero3();
  cfg.engine_opts.elem_scale = 65536;
  cfg.subgroup_params = 100'000'000;
  cfg.host_cache_override = 2;
  return cfg;
}

TEST(NodeSim, RunsIterationWithAllPhases) {
  SimClock clock(2000.0);
  NodeSim node(clock, base_config(true));
  node.initialize();
  const auto report = node.run_iteration(0);
  EXPECT_GT(report.forward_seconds, 0.0);
  // backward_seconds is the *residual* of the barrier-clock wall over the
  // analytic forward charge; for a tiny model it is small enough that
  // wall-clock rounding can land it exactly on 0, so assert the analytic
  // per-phase cost is positive and the residual merely non-negative.
  EXPECT_GT(node.backward_compute_seconds(), 0.0);
  EXPECT_GE(report.backward_seconds, 0.0);
  EXPECT_GT(report.update_seconds, 0.0);
  EXPECT_EQ(report.params_updated, tiny_model().parameters());
  EXPECT_EQ(report.subgroups_processed, 4u * 3u);  // 4 workers x 3 subgroups
}

TEST(NodeSim, WarmupIterationsDiscarded) {
  SimClock clock(2000.0);
  NodeSim node(clock, base_config(true));
  node.initialize();
  const auto reports = node.run(4, 2);
  EXPECT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].iteration, 2u);
  EXPECT_EQ(reports[1].iteration, 3u);
}

TEST(NodeSim, MlpOffloadBeatsBaselineIteration) {
  // Slower clock than the sibling suites (250 vs 2000 virtual sec/sec):
  // this assertion compares modelled I/O-overlap durations, and sanitized
  // Debug builds (ubsan preset) inflate the real-compute noise riding on
  // top of them roughly an order of magnitude. Scaling time down makes
  // every modelled virtual second 8x longer in real terms, keeping that
  // noise small relative to the speedup being measured.
  SimClock clock(250.0);
  NodeSim ds_node(clock, base_config(false));
  ds_node.initialize();
  NodeSim mlp_node(clock, base_config(true));
  mlp_node.initialize();

  // Average the post-warmup iterations (cache effects start at iter 1).
  f64 ds_total = 0, mlp_total = 0;
  for (const auto& r : ds_node.run(3, 1)) ds_total += r.iteration_seconds();
  for (const auto& r : mlp_node.run(3, 1)) mlp_total += r.iteration_seconds();
  EXPECT_LT(mlp_total, ds_total)
      << "MLP-Offload must out-run the DeepSpeed baseline";
  // The paper reports ~2.5x; at this tiny scale accept anything >1.2x.
  EXPECT_GT(ds_total / mlp_total, 1.2);
}

TEST(NodeSim, BackwardPhaseShrinksWithDelayedConversion) {
  // Exaggerate the write bottleneck so the FP32 gradient flush (baseline
  // behaviour) clearly dominates the backward phase: ~4.3 GB of node
  // gradients at 0.5 GB/s is >= 8 vsec of drain time that MLP-Offload's
  // delayed conversion skips entirely.
  SimClock clock(2000.0);
  auto ds_cfg = base_config(false);
  ds_cfg.testbed.nvme_write_bw = 0.5 * GB;
  auto mlp_cfg = base_config(true);
  mlp_cfg.testbed.nvme_write_bw = 0.5 * GB;
  NodeSim ds_node(clock, ds_cfg);
  ds_node.initialize();
  NodeSim mlp_node(clock, mlp_cfg);
  mlp_node.initialize();
  const auto ds = ds_node.run_iteration(0);
  const auto mlp = mlp_node.run_iteration(0);
  EXPECT_GT(ds.backward_seconds, mlp.backward_seconds * 2.0);
}

TEST(NodeSim, WorkersShardTheModel) {
  SimClock clock(2000.0);
  NodeSim node(clock, base_config(true));
  u64 total = 0;
  for (u32 w = 0; w < node.worker_count(); ++w) {
    total += node.worker(w).engine().layout().shard_params;
  }
  EXPECT_EQ(total, tiny_model().parameters());
}

TEST(NodeSim, EngineStateIdenticalAcrossEngineConfigs) {
  // Node-level equivalence: same model, same iteration count, baseline vs
  // full MLP-Offload must produce identical optimizer state per rank.
  SimClock clock(2000.0);
  NodeSim ds_node(clock, base_config(false));
  ds_node.initialize();
  NodeSim mlp_node(clock, base_config(true));
  mlp_node.initialize();
  ds_node.run(2, 0);
  mlp_node.run(2, 0);
  for (u32 w = 0; w < 4; ++w) {
    EXPECT_EQ(ds_node.worker(w).engine().state_checksum(),
              mlp_node.worker(w).engine().state_checksum())
        << "rank " << w;
  }
}

TEST(NodeSim, DistributionSpansHostAndPaths) {
  SimClock clock(2000.0);
  auto cfg = base_config(true);
  NodeSim node(clock, cfg);
  node.initialize();

  // Cold start: everything offloaded, split across both paths per Eq. 1.
  const auto cold = node.node_distribution();
  const u64 expected =
      tiny_model().parameters() * kOptimStateBytesPerParam;
  EXPECT_EQ(cold.host_sim_bytes, 0u);
  EXPECT_EQ(cold.path_sim_bytes[0] + cold.path_sim_bytes[1], expected);
  EXPECT_GT(cold.path_sim_bytes[0], 0u);
  EXPECT_GT(cold.path_sim_bytes[1], 0u);

  // After training: the host cache holds the reusable tail; bytes are
  // conserved across host + paths. (With only one uncached subgroup per
  // worker, a single path may legitimately hold everything offloaded.)
  node.run(2, 0);
  const auto warm = node.node_distribution();
  const u64 total = warm.host_sim_bytes + warm.path_sim_bytes[0] +
                    warm.path_sim_bytes[1];
  EXPECT_EQ(total, expected);
  EXPECT_GT(warm.host_sim_bytes, 0u);
}

TEST(NodeSim, NoPfsMeansSinglePath) {
  SimClock clock(2000.0);
  auto cfg = base_config(true);
  cfg.attach_pfs = false;
  cfg.engine_opts.multipath = false;
  NodeSim node(clock, cfg);
  node.initialize();
  EXPECT_EQ(node.vtier().path_count(), 1u);
  const auto report = node.run_iteration(0);
  EXPECT_GT(report.update_seconds, 0.0);
}

TEST(NodeSim, GradientAccumulationMultipliesForwardCost) {
  SimClock clock(2000.0);
  auto cfg1 = base_config(true);
  auto cfg4 = base_config(true);
  cfg4.accum_steps = 4;
  NodeSim n1(clock, cfg1), n4(clock, cfg4);
  n1.initialize();
  n4.initialize();
  const auto r1 = n1.run_iteration(0);
  const auto r4 = n4.run_iteration(0);
  EXPECT_NEAR(r4.forward_seconds / r1.forward_seconds, 4.0, 0.01);
  // The update runs once per iteration regardless of accumulation: the
  // same parameters, subgroups and fetched bytes (counts, not wall times,
  // so host load cannot move them).
  EXPECT_EQ(r4.params_updated, r1.params_updated);
  EXPECT_EQ(r4.subgroups_processed, r1.subgroups_processed);
  EXPECT_EQ(r4.sim_bytes_fetched, r1.sim_bytes_fetched);
}

TEST(HostCacheBudget, ShrinksWithModelSize) {
  const auto testbed = TestbedSpec::testbed1();
  const u64 small = host_cache_budget_bytes(testbed, 10'000'000'000ull);
  const u64 large = host_cache_budget_bytes(testbed, 100'000'000'000ull);
  EXPECT_GT(small, large);
  // Very large models exhaust the 512 GB host entirely (the Fig. 10 trend).
  EXPECT_EQ(host_cache_budget_bytes(testbed, 160'000'000'000ull), 0u);
}

}  // namespace
}  // namespace mlpo
