// Elastic checkpoint-restart driver (paper §3.3's checkpoint pre-staging,
// promoted to a first-class recovery path).
//
// The driver owns the ClusterSim and runs the training loop with a failure
// story: it snapshots every engine into a checkpoint store every
// `checkpoint_interval` iterations via checkpoint_prestage, and when a
// fail-stopped node surfaces as a NodeFailure it
//   1. cancels the dead node's still-queued I/O through the scheduler's
//      cancellation tokens (nothing dispatches serially against a dead
//      device),
//   2. replaces the lost hardware — either a same-count replacement node
//      or, with restart_nodes set, a full elastic rebuild at a different
//      node count (subgroup ownership remaps through the elastic shard
//      layout's world-size-independent global ids),
//   3. restores every engine from the last snapshot (pre-staged subgroups
//      restore from the persistent tier path, the rest from the store),
//      and rewinds the iteration counter to the snapshot.
// Recovery time and lost (rolled-back) work are charged to the first
// iteration report after the recovery and summed in RecoveryStats (also
// the one home of the cancelled-request count), so checkpoint-interval-vs-
// recovery-cost tradeoffs are measurable — and bench-gated — like every
// other perf claim.
#pragma once

#include <memory>
#include <vector>

#include "resilience/failure_injector.hpp"
#include "runtime/cluster.hpp"
#include "tiers/storage_tier.hpp"

namespace mlpo {

struct RecoveryOptions {
  /// Iterations between checkpoint_prestage snapshots (>= 1). An initial
  /// snapshot is always taken right after initialization, so every failure
  /// has a restore point.
  u32 checkpoint_interval = 1;
  /// Node count to rebuild with after a failure; 0 = keep the current
  /// count (replace the failed node in place). Any other value requires
  /// ClusterConfig::node.elastic_sharding.
  u32 restart_nodes = 0;
  /// Abort (rethrow the NodeFailure) after this many recoveries.
  u32 max_recoveries = 8;

  void validate(const ClusterConfig& cluster) const;
};

struct RecoveryStats {
  u32 failures = 0;            ///< NodeFailure events observed
  u32 recoveries = 0;          ///< completed repairs
  /// Virtual time from the start of each doomed iteration through its
  /// completed restore: the partial work the failure destroyed plus the
  /// repair itself (neither appears in any iteration report).
  f64 recovery_seconds = 0;
  u32 lost_work_iterations = 0;  ///< completed iterations rolled back
  u64 cancelled_requests = 0;  ///< queued I/O dropped via cancellation tokens
  u32 restored_subgroups = 0;  ///< subgroups loaded from the checkpoint store
  u32 checkpoints_taken = 0;
  f64 checkpoint_seconds = 0;  ///< virtual time spent in snapshots
};

class RecoveryDriver {
 public:
  /// @param store checkpoint store (persistent tier); shared by every
  ///        engine in the cluster, keyed per rank (classic sharding) or
  ///        per global subgroup (elastic sharding).
  RecoveryDriver(const SimClock& clock, ClusterConfig cfg,
                 std::shared_ptr<StorageTier> store,
                 RecoveryOptions opts = {},
                 FailureInjector injector = FailureInjector{});

  /// Build + initialize the cluster, take the iteration-0 snapshot, and
  /// arm the virtual-time failure schedule. Must precede run().
  void initialize();

  /// Run `iterations`, surviving injected node losses, discarding the
  /// first `warmup` reports. Reports for iterations that were rolled back
  /// by a recovery are replaced by their re-run; the first report after a
  /// recovery carries the recovery_seconds / lost_work counters. Ends with
  /// a trailing snapshot that re-baselines the final state as iteration 0
  /// of any subsequent run() (each run numbers its iterations from 0).
  std::vector<IterationReport> run(u32 iterations, u32 warmup = 0);

  /// The current cluster. Valid from construction on, but an elastic
  /// restart (restart_nodes set) REPLACES the underlying object mid-run —
  /// re-fetch the reference after run() instead of holding it across one.
  ClusterSim& cluster() { return *cluster_; }
  const ClusterSim& cluster() const { return *cluster_; }
  StorageTier& store() { return *store_; }
  const RecoveryStats& stats() const { return stats_; }
  u64 last_checkpoint_iteration() const { return last_checkpoint_iteration_; }

 private:
  void checkpoint_all(u64 iteration);
  void restore_all();
  void recover(const NodeFailure& failure, u64 at_iteration,
               f64 failed_iteration_start);
  template <typename Fn>
  void for_each_engine(Fn&& fn);

  /// Recovery accounting carried onto the next completed iteration report
  /// (one struct, not parallel fields — counters that must move in
  /// lock-step drift apart when hand-synced, which is exactly the class of
  /// bug the accumulate_counters() unification fixes elsewhere).
  struct PendingRecovery {
    u32 recoveries = 0;
    f64 seconds = 0;
    u32 lost_iterations = 0;

    void add(u32 n, f64 s, u32 lost);
    /// Reclaim the recovery counters a rolled-back report was carrying.
    void reclaim(const IterationReport& dropped);
    /// Move everything onto `report` and reset to zero.
    void attach(IterationReport& report);
  };

  const SimClock* clock_;
  ClusterConfig cfg_;
  std::shared_ptr<StorageTier> store_;
  RecoveryOptions opts_;
  FailureInjector injector_;
  std::unique_ptr<ClusterSim> cluster_;
  bool initialized_ = false;
  u64 last_checkpoint_iteration_ = 0;
  RecoveryStats stats_;
  PendingRecovery pending_;
};

/// Order-independent digest of the whole cluster's optimizer state (the
/// sum of every engine's state_checksum). With elastic sharding the digest
/// is invariant under the node count, which is what the recovery
/// equivalence tests assert.
u64 cluster_state_checksum(ClusterSim& cluster);

}  // namespace mlpo
