// Multi-node weak-scaling simulation (paper §4.4): tensor parallelism
// inside each node, data parallelism across nodes, node-local NVMe per
// node, and one PFS shared — and therefore contended — by all nodes.
#pragma once

#include <memory>
#include <stdexcept>
#include <vector>

#include "runtime/node.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {

struct ClusterConfig {
  NodeConfig node;      ///< per-node template (dp/world/rank fields filled in)
  u32 nodes = 1;
  /// When set, the cluster draws its PFS fabric from the substrate's
  /// lazily-built cached one instead of creating a private fabric — so a
  /// Trainer that owns a substrate and a JobManager that shares one both
  /// route all PFS traffic through a single aggregate-capacity object.
  /// (Borrowed nodes — node.substrate set — need no fabric here at all:
  /// their PFS channel lives inside the substrate's virtual tier.)
  ClusterSubstrate* substrate = nullptr;
};

/// Thrown by ClusterSim::run_iteration when one or more nodes fail-stopped
/// mid-iteration (their FailStopTiers latched dead). Distinct from ordinary
/// exceptions so the RecoveryDriver can repair node losses while genuine
/// bugs still abort the run.
class NodeFailure : public std::runtime_error {
 public:
  explicit NodeFailure(std::vector<u32> nodes);
  const std::vector<u32>& nodes() const { return nodes_; }

 private:
  std::vector<u32> nodes_;
};

class ClusterSim {
 public:
  ClusterSim(const SimClock& clock, const ClusterConfig& cfg);

  void initialize();

  /// One synchronous data-parallel iteration across all nodes. The report
  /// takes phase walls from the slowest node and sums the counters. Throws
  /// NodeFailure when a node's fail-stop wrapper killed it mid-iteration;
  /// any other node error is rethrown as-is.
  IterationReport run_iteration(u64 iteration);

  std::vector<IterationReport> run(u32 iterations, u32 warmup);

  u32 node_count() const { return static_cast<u32>(nodes_.size()); }
  NodeSim& node(u32 i) { return *nodes_.at(i); }
  StorageTier* shared_pfs() { return pfs_.get(); }

  /// Fail-stop node `idx` (all of its wrapped paths die). Requires the
  /// cluster to be built with NodeConfig::wrap_failstop.
  void fail_node(u32 idx);

  /// Tear down node `idx` and build a replacement in its place: fresh
  /// tiers (the node-local NVMe content is lost, as on real hardware),
  /// fresh workers/engines, same ranks. The replacement is uninitialized —
  /// the caller (RecoveryDriver) initializes and then restores it from the
  /// last checkpoint.
  void replace_node(u32 idx);

 private:
  NodeConfig node_config(u32 idx) const;

  const SimClock* clock_;
  ClusterConfig cfg_;
  std::shared_ptr<StorageTier> pfs_;
  std::vector<std::unique_ptr<NodeSim>> nodes_;
};

}  // namespace mlpo
