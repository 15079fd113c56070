// ClusterSim: multi-node weak scaling structure, shared PFS, merging.
#include <gtest/gtest.h>

#include "runtime/cluster.hpp"

namespace mlpo {
namespace {

ModelConfig tiny_model() { return ModelConfig{"tiny", 4, 4096, 32}; }

ClusterConfig make_config(u32 nodes, bool mlp = true) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.node.model = tiny_model();
  cfg.node.testbed = TestbedSpec::testbed2();
  cfg.node.engine_opts =
      mlp ? EngineOptions::mlp_offload() : EngineOptions::deepspeed_zero3();
  cfg.node.engine_opts.elem_scale = 65536;
  cfg.node.subgroup_params = 50'000'000;
  cfg.node.host_cache_override = 2;
  return cfg;
}

TEST(ClusterSim, SingleNodeDegeneratesToNodeSim) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(1));
  cluster.initialize();
  const auto report = cluster.run_iteration(0);
  EXPECT_EQ(report.params_updated, tiny_model().parameters());
  EXPECT_GT(report.update_seconds, 0.0);
}

TEST(ClusterSim, TwoNodesShardAcrossEightRanks) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(2));
  EXPECT_EQ(cluster.node_count(), 2u);
  u64 total = 0;
  for (u32 n = 0; n < 2; ++n) {
    for (u32 w = 0; w < cluster.node(n).worker_count(); ++w) {
      const auto& layout = cluster.node(n).worker(w).engine().layout();
      EXPECT_EQ(layout.world_size, 8u);
      total += layout.shard_params;
    }
  }
  EXPECT_EQ(total, tiny_model().parameters());
}

TEST(ClusterSim, GlobalRanksAreUnique) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(2));
  std::set<int> ranks;
  for (u32 n = 0; n < 2; ++n) {
    for (u32 w = 0; w < 4; ++w) {
      ranks.insert(cluster.node(n).worker(w).rank());
    }
  }
  EXPECT_EQ(ranks.size(), 8u);
  EXPECT_EQ(*ranks.begin(), 0);
  EXPECT_EQ(*ranks.rbegin(), 7);
}

TEST(ClusterSim, NodesShareOnePfsFabric) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(2));
  ASSERT_NE(cluster.shared_pfs(), nullptr);
  // Each node has its own NIC-limited client channel (distinct objects)...
  auto* client0 = dynamic_cast<ThrottledTier*>(&cluster.node(0).vtier().path(1));
  auto* client1 = dynamic_cast<ThrottledTier*>(&cluster.node(1).vtier().path(1));
  ASSERT_NE(client0, nullptr);
  ASSERT_NE(client1, nullptr);
  EXPECT_NE(client0, client1);
  // ...funnelling into the one shared fabric tier.
  EXPECT_EQ(&client0->backend(), cluster.shared_pfs());
  EXPECT_EQ(&client1->backend(), cluster.shared_pfs());
  // The fabric aggregates more bandwidth than any single client channel.
  EXPECT_GT(cluster.shared_pfs()->read_bandwidth(),
            client0->read_bandwidth());
}

TEST(ClusterSim, RunsIterationsAcrossNodes) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(2));
  cluster.initialize();
  const auto reports = cluster.run(2, 1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].params_updated, tiny_model().parameters());
  u32 expected_subgroups = 0;
  for (u32 n = 0; n < 2; ++n) {
    for (u32 w = 0; w < cluster.node(n).worker_count(); ++w) {
      expected_subgroups +=
          cluster.node(n).worker(w).engine().num_subgroups();
    }
  }
  EXPECT_EQ(reports[0].subgroups_processed, expected_subgroups);
  EXPECT_GT(reports[0].update_seconds, 0.0);
}

TEST(ClusterSim, MergePreservesIoSchedulerCounters) {
  // The scheduler counters live with their owner, one IoScheduler per
  // worker; summed over every node they must cover the cluster-level
  // report's work.
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_config(2));
  cluster.initialize();
  const auto report = cluster.run_iteration(0);

  IoScheduler::PriorityStats demand;
  IoScheduler::PriorityStats flush;
  for (u32 n = 0; n < cluster.node_count(); ++n) {
    for (u32 w = 0; w < cluster.node(n).worker_count(); ++w) {
      const IoScheduler::Stats s = cluster.node(n).worker(w).io().stats();
      const auto& d =
          s.priority[static_cast<std::size_t>(IoPriority::kDemandPrefetch)];
      demand.completed += d.completed;
      demand.failed += d.failed;
      demand.sim_bytes += d.sim_bytes;
      demand.service_seconds += d.service_seconds;
      const auto& f =
          s.priority[static_cast<std::size_t>(IoPriority::kLazyFlush)];
      flush.completed += f.completed;
      flush.failed += f.failed;
    }
  }
  EXPECT_GT(demand.completed + demand.failed, 0u);
  EXPECT_GT(demand.sim_bytes, 0u);
  EXPECT_GT(demand.service_seconds, 0.0);
  EXPECT_GT(flush.completed + flush.failed, 0u);

  // At least one demand fetch per processed subgroup minus cache hits.
  EXPECT_GE(demand.completed + report.host_cache_hits,
            report.subgroups_processed);
}

TEST(ClusterSim, InterNodeCommChargedInForward) {
  // Multi-node DP must make the forward/backward phases more expensive
  // than single-node (slingshot allgathers vs pure NVLink).
  SimClock clock(2000.0);
  ClusterSim single(clock, make_config(1));
  single.initialize();
  ClusterSim dual(clock, make_config(2));
  dual.initialize();
  const auto r1 = single.run_iteration(0);
  const auto r2 = dual.run_iteration(0);
  EXPECT_GT(r2.forward_seconds, r1.forward_seconds);
}

TEST(ClusterSim, WeakScalingAggregateThroughputGrows) {
  // Per-node work is constant here (model fixed, more ranks -> smaller
  // shards), so aggregate update throughput must rise with node count.
  // Lower time scale + more measured iterations keep the comparison well
  // clear of emulation-host scheduling noise.
  SimClock clock(1000.0);
  ClusterSim single(clock, make_config(1));
  single.initialize();
  ClusterSim dual(clock, make_config(2));
  dual.initialize();
  const auto r1 = average_reports(single.run(5, 1));
  const auto r2 = average_reports(dual.run(5, 1));
  EXPECT_GT(r2.update_throughput_mparams(), r1.update_throughput_mparams());
}

}  // namespace
}  // namespace mlpo
