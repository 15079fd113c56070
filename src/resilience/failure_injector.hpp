// Deterministic failure injection for cluster runs.
//
// A FailureSchedule is a list of fail-stop events — whole nodes or single
// tier paths — each triggered either at an iteration boundary (the
// injector kills the target before the iteration runs) or at a virtual
// SimClock deadline (the injector arms the target's FailStopLatch, which
// latches dead the first time the clock passes the deadline). Both forms
// are deterministic in virtual time; neither depends on host scheduling.
// Events fire exactly once, so a recovery rewinding the iteration counter
// does not replay the failure against the replacement hardware.
//
// Schedules are configurable from the scenario JSON (the same
// strict-validation style as the policy registry: unknown kinds abort at
// parse time with the known set).
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"
#include "util/json.hpp"

namespace mlpo {

class ClusterSim;

struct FailureEvent {
  enum class Kind : u8 {
    kNode,  ///< fail-stop every wrapped path of the node
    kPath,  ///< fail-stop one tier path of the node
  };

  Kind kind = Kind::kNode;
  u32 node = 0;
  /// kPath only: VirtualTier path index on that node.
  std::size_t path = 0;

  /// Trigger: exactly one of the two must be set.
  i64 at_iteration = -1;  ///< fire before this iteration starts
  f64 at_vtime = -1;      ///< arm the latch for this virtual time

  void validate() const;  ///< throws std::invalid_argument on bad triggers
};

/// Parse a JSON array of failure events:
///   [{"kind": "node", "node": 1, "at_iteration": 3},
///    {"kind": "path", "node": 0, "path": 0, "at_vtime": 2.5}]
std::vector<FailureEvent> failure_schedule_from_json(const json::Value& doc);

/// Everything the resilience layer needs from the scenario JSON; consumed
/// by Trainer (which wires a RecoveryDriver when `enabled`).
struct ResilienceConfig {
  bool enabled = false;
  /// Iterations between checkpoint_prestage snapshots (>= 1).
  u32 checkpoint_interval = 1;
  /// Node count to rebuild the cluster with after a failure; 0 keeps the
  /// current count (the failed node is replaced in place). Any other value
  /// requires elastic_sharding.
  u32 restart_nodes = 0;
  /// Shard via world-size-independent global subgroups (required for
  /// restart_nodes != current count).
  bool elastic_sharding = false;
  /// Abort after this many recoveries (a flapping cluster is a bug).
  u32 max_recoveries = 8;
  std::vector<FailureEvent> failures;
};

/// Parse the "resilience" config section (all keys optional):
///   {"enabled": true, "checkpoint_interval": 2, "restart_nodes": 1,
///    "elastic_sharding": true, "max_recoveries": 4, "failures": [...]}
ResilienceConfig resilience_config_from_json(const json::Value& doc);

class FailureInjector {
 public:
  FailureInjector() = default;
  explicit FailureInjector(std::vector<FailureEvent> schedule);

  /// Record which armed virtual-time events latched on the current
  /// hardware: their deadline is behind `now` AND their FailStopLatch
  /// reports dead(). Those events are done and will not be re-injected on
  /// replacements. The RecoveryDriver calls this right before tearing
  /// nodes down, so a deadline that elapses only *during* the rebuild —
  /// or a latch killed by a *different* event ahead of a still-future
  /// deadline — is not mistaken for an honoured failure.
  void observe_latches(ClusterSim& cluster, f64 now);

  /// Arm every pending virtual-time event on the cluster's latches.
  /// Call after every cluster (re)build, passing the current virtual time.
  /// A still-future deadline survives the rebuild (a node living through
  /// someone else's elastic restart keeps its schedule). A deadline
  /// already behind `now` that observe_latches() has not retired — it
  /// expired during initialization or inside a rebuild window, so no
  /// hardware ever latched it — is overdue and injects immediately rather
  /// than silently evaporating.
  void arm(ClusterSim& cluster, f64 now);

  /// Fire every unfired iteration-driven event due at `iteration` (kill
  /// the target immediately). Returns how many fired. Events targeting a
  /// node index beyond the current cluster size (possible after an elastic
  /// shrink) are skipped with a warning.
  u32 fire_due(ClusterSim& cluster, u64 iteration);

  /// True once every event has fired.
  bool exhausted() const;

  const std::vector<FailureEvent>& schedule() const { return schedule_; }

 private:
  void apply(ClusterSim& cluster, const FailureEvent& event, bool arm_only);

  std::vector<FailureEvent> schedule_;
  std::vector<u8> fired_;
  std::vector<u8> armed_;  ///< vtime events that reached real hardware
};

}  // namespace mlpo
