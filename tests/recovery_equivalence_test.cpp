// Recovery equivalence: a run interrupted by an injected node failure and
// resumed from checkpoint must reach the same parameter checksums as an
// uninterrupted run — including when it resumes at a *different* node
// count (elastic restart). Same parity-grid style as equivalence_test's
// cross-engine comparisons, applied to the failure axis. The same-count
// rows also run over the storage axis: on "uring_file" the fail-stop
// wrappers keep async dispatch, so an injected failure meets completions
// settling on the backend's threads rather than inline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "resilience/recovery_driver.hpp"
#include "resilience_test_util.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo {
namespace {

using test::make_cluster_config;
using test::node_failure_at;

constexpr u32 kIterations = 5;

/// NVMe-path backends of the storage axis: the emulated tier, and real
/// files behind AsyncFileBackend (its pread/pwrite pool where the kernel
/// refuses io_uring).
const std::vector<std::string> kBackends{"sim", "uring_file"};

/// One run's cluster config on `backend`; a real backend gets a fresh
/// directory, removed when the run's RunStorage goes out of scope.
struct RunStorage {
  RunStorage(u32 nodes, bool elastic, const std::string& backend)
      : cfg(make_cluster_config(nodes, elastic)) {
    cfg.node.storage.backend = backend;
    if (backend == "sim") return;
    static std::atomic<u32> seq{0};
    root = std::filesystem::temp_directory_path() /
           ("mlpo_recovery_eq_" + std::to_string(::getpid()) + "_" +
            std::to_string(seq.fetch_add(1)));
    cfg.node.storage.root = root.string();
  }
  ~RunStorage() {
    std::error_code ec;
    if (!root.empty()) std::filesystem::remove_all(root, ec);
  }

  ClusterConfig cfg;
  std::filesystem::path root;
};

u64 uninterrupted_checksum(u32 nodes, bool elastic,
                           const std::string& backend = "sim") {
  const RunStorage storage(nodes, elastic, backend);
  SimClock clock(2000.0);
  ClusterSim cluster(clock, storage.cfg);
  cluster.initialize();
  cluster.run(kIterations, 0);
  return cluster_state_checksum(cluster);
}

u64 recovered_checksum(u32 nodes, bool elastic, RecoveryOptions opts,
                       std::vector<FailureEvent> schedule,
                       RecoveryStats* stats_out = nullptr,
                       const std::string& backend = "sim") {
  const RunStorage storage(nodes, elastic, backend);
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryDriver driver(clock, storage.cfg, store, opts,
                        FailureInjector(std::move(schedule)));
  driver.initialize();
  // Only the real backend completes asynchronously behind its wrapper.
  EXPECT_EQ(driver.cluster().node(0).vtier().path_supports_async(0),
            backend != "sim")
      << backend;
  driver.run(kIterations, 0);
  if (stats_out != nullptr) *stats_out = driver.stats();
  return cluster_state_checksum(driver.cluster());
}

TEST(RecoveryEquivalence, ElasticShardingIsWorldSizeInvariant) {
  // The foundation of elastic restart, failure-free: the same model
  // trained under different node counts reaches the same global digest
  // because content is keyed on world-size-independent global subgroups.
  const u64 one_node = uninterrupted_checksum(1, /*elastic=*/true);
  const u64 two_nodes = uninterrupted_checksum(2, /*elastic=*/true);
  EXPECT_EQ(one_node, two_nodes);

  // Classic per-rank sharding is *not* invariant — the invariance above is
  // a property of the elastic layout, not a tautology of the checksum.
  const u64 classic_one = uninterrupted_checksum(1, /*elastic=*/false);
  const u64 classic_two = uninterrupted_checksum(2, /*elastic=*/false);
  EXPECT_NE(classic_one, classic_two);
}

TEST(RecoveryEquivalence, SameCountRecoveryMatchesUninterruptedRun) {
  const u64 reference = uninterrupted_checksum(2, /*elastic=*/false);
  for (const std::string& backend : kBackends) {
    // The storage backend moves no bits: each backend's uninterrupted run
    // is the emulated one's.
    EXPECT_EQ(uninterrupted_checksum(2, /*elastic=*/false, backend),
              reference)
        << backend;
    for (const u32 interval : {1u, 2u, 4u}) {
      RecoveryOptions opts;
      opts.checkpoint_interval = interval;
      RecoveryStats stats;
      const u64 recovered =
          recovered_checksum(2, /*elastic=*/false, opts,
                             {node_failure_at(1, 3)}, &stats, backend);
      EXPECT_EQ(recovered, reference)
          << backend << " checkpoint_interval=" << interval;
      EXPECT_EQ(stats.recoveries, 1u)
          << backend << " checkpoint_interval=" << interval;
    }
  }
}

TEST(RecoveryEquivalence, ElasticShrinkMatchesUninterruptedRun) {
  // Lose one node of two, resume on a single node: subgroup ownership
  // remaps through the elastic layout, state restores from the gid-keyed
  // checkpoint, and the digest still matches the uninterrupted 2-node run.
  const u64 reference = uninterrupted_checksum(2, /*elastic=*/true);
  RecoveryOptions opts;
  opts.checkpoint_interval = 2;
  opts.restart_nodes = 1;
  RecoveryStats stats;
  const u64 recovered = recovered_checksum(2, /*elastic=*/true, opts,
                                           {node_failure_at(0, 3)}, &stats);
  EXPECT_EQ(recovered, reference);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.restored_subgroups, 0u);
}

TEST(RecoveryEquivalence, ElasticGrowMatchesUninterruptedRun) {
  // Replacement capacity can also exceed the original cluster: restart the
  // 2-node run on 3 nodes mid-way.
  const u64 reference = uninterrupted_checksum(2, /*elastic=*/true);
  RecoveryOptions opts;
  opts.checkpoint_interval = 1;
  opts.restart_nodes = 3;
  const u64 recovered = recovered_checksum(2, /*elastic=*/true, opts,
                                           {node_failure_at(1, 2)});
  EXPECT_EQ(recovered, reference);
}

TEST(RecoveryEquivalence, BackToBackFailuresStillConverge) {
  const u64 reference = uninterrupted_checksum(2, /*elastic=*/false);
  for (const std::string& backend : kBackends) {
    RecoveryOptions opts;
    opts.checkpoint_interval = 1;
    RecoveryStats stats;
    const u64 recovered = recovered_checksum(
        2, /*elastic=*/false, opts,
        {node_failure_at(1, 2), node_failure_at(0, 4)}, &stats, backend);
    EXPECT_EQ(recovered, reference) << backend;
    EXPECT_EQ(stats.recoveries, 2u) << backend;
  }
}

}  // namespace
}  // namespace mlpo
