#include "resilience/recovery_driver.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "util/logging.hpp"

namespace mlpo {

void RecoveryDriver::PendingRecovery::add(u32 n, f64 s, u32 lost) {
  recoveries += n;
  seconds += s;
  lost_iterations += lost;
}

void RecoveryDriver::PendingRecovery::reclaim(const IterationReport& dropped) {
  add(dropped.recoveries, dropped.recovery_seconds,
      dropped.lost_work_iterations);
}

void RecoveryDriver::PendingRecovery::attach(IterationReport& report) {
  report.recoveries = recoveries;
  report.recovery_seconds = seconds;
  report.lost_work_iterations = lost_iterations;
  *this = PendingRecovery{};
}

void RecoveryOptions::validate(const ClusterConfig& cluster) const {
  if (checkpoint_interval == 0) {
    throw std::invalid_argument(
        "RecoveryOptions: checkpoint_interval must be >= 1");
  }
  if (restart_nodes != 0 && restart_nodes != cluster.nodes &&
      !cluster.node.elastic_sharding) {
    throw std::invalid_argument(
        "RecoveryOptions: restart_nodes=" + std::to_string(restart_nodes) +
        " differs from the cluster's " + std::to_string(cluster.nodes) +
        " nodes, which re-shards the model and therefore requires "
        "NodeConfig::elastic_sharding");
  }
}

RecoveryDriver::RecoveryDriver(const SimClock& clock, ClusterConfig cfg,
                               std::shared_ptr<StorageTier> store,
                               RecoveryOptions opts, FailureInjector injector)
    : clock_(&clock), cfg_(std::move(cfg)), store_(std::move(store)),
      opts_(opts), injector_(std::move(injector)) {
  if (store_ == nullptr) {
    throw std::invalid_argument("RecoveryDriver: checkpoint store required");
  }
  opts_.validate(cfg_);
  // Failure injection needs fail-stoppable hardware; the driver implies it
  // rather than making every caller remember the pairing.
  if (!injector_.schedule().empty()) cfg_.node.wrap_failstop = true;
  // Strict-validation rule: an event aimed at hardware that never exists
  // would be warn-skipped at fire time and the experiment would silently
  // measure nothing. (The lenient skip inside the injector is only for
  // nodes removed later by an elastic shrink.)
  for (const FailureEvent& event : injector_.schedule()) {
    if (event.node >= cfg_.nodes) {
      throw std::invalid_argument(
          "RecoveryDriver: failure event targets node " +
          std::to_string(event.node) + " but the cluster has " +
          std::to_string(cfg_.nodes) + " node(s)");
    }
  }
  // Built here, not in initialize(), so cluster() never dereferences null.
  // NOTE: an elastic restart *replaces* the object — see cluster() in the
  // header for the reference-lifetime contract.
  cluster_ = std::make_unique<ClusterSim>(*clock_, cfg_);
}

template <typename Fn>
void RecoveryDriver::for_each_engine(Fn&& fn) {
  for (u32 n = 0; n < cluster_->node_count(); ++n) {
    NodeSim& node = cluster_->node(n);
    for (u32 w = 0; w < node.worker_count(); ++w) {
      fn(node.worker(w).engine());
    }
  }
}

void RecoveryDriver::initialize() {
  if (initialized_) {
    throw std::logic_error("RecoveryDriver: double initialize");
  }
  cluster_->initialize();
  // Iteration-0 snapshot: every failure has a restore point, even before
  // the first scheduled checkpoint.
  checkpoint_all(0);
  injector_.arm(*cluster_, clock_->now());
  initialized_ = true;
}

void RecoveryDriver::checkpoint_all(u64 iteration) {
  const f64 start = clock_->now();
  try {
    for_each_engine([&](Engine& engine) {
      checkpoint_prestage(engine, *store_);
    });
  } catch (const FailStopError& e) {
    // A fail-stop latching mid-snapshot leaves the store with a mix of old
    // and new subgroup images; restoring from it would silently resurrect
    // an inconsistent iteration. Until snapshots are versioned, abort
    // loudly instead of recovering from a half-written checkpoint.
    throw std::runtime_error(
        std::string("RecoveryDriver: node fail-stopped during the "
                    "checkpoint at iteration ") +
        std::to_string(iteration) +
        "; the snapshot may be partial, refusing to use it for recovery (" +
        e.what() + ")");
  }
  stats_.checkpoint_seconds += clock_->now() - start;
  ++stats_.checkpoints_taken;
  last_checkpoint_iteration_ = iteration;
}

void RecoveryDriver::restore_all() {
  try {
    for_each_engine([&](Engine& engine) {
      stats_.restored_subgroups += checkpoint_restore(engine, *store_);
    });
  } catch (const FailStopError& e) {
    throw std::runtime_error(
        std::string("RecoveryDriver: node fail-stopped while restoring "
                    "from the checkpoint; replacement hardware is dying "
                    "faster than it can be repaired (") +
        e.what() + ")");
  }
}

void RecoveryDriver::recover(const NodeFailure& failure, u64 at_iteration,
                             f64 failed_iteration_start) {
  ++stats_.failures;
  if (stats_.recoveries >= opts_.max_recoveries) {
    MLPO_LOG_WARN << "RecoveryDriver: giving up after "
                  << stats_.recoveries << " recoveries";
    throw failure;
  }
  // The cost window opens when the doomed iteration started, not when the
  // failure surfaced: the virtual time the cluster burned on work the
  // failure destroyed is recovery cost too, and must not vanish from the
  // interval-vs-cost telemetry.
  const f64 start = failed_iteration_start;

  // Retire the virtual-time events the dying hardware actually honoured
  // before it is torn down; deadlines that only elapse during the rebuild
  // are re-injected on the replacement instead of silently vanishing.
  injector_.observe_latches(*cluster_, clock_->now());

  // 1. Abandon the dead nodes' queued I/O: each still-queued request's
  // cancellation token is flagged, so it drops at dispatch instead of
  // dispatching serially against a dead device.
  u64 cancelled = 0;
  for (const u32 idx : failure.nodes()) {
    if (idx < cluster_->node_count()) {
      cancelled += cluster_->node(idx).cancel_queued_io();
    }
  }

  // 2. Replace the lost hardware.
  if (opts_.restart_nodes != 0 &&
      opts_.restart_nodes != cluster_->node_count()) {
    // Elastic restart: rebuild the whole cluster at the new node count.
    // Subgroup ownership remaps through the elastic shard layout; the
    // checkpoint store is addressed by global subgroup id, so every new
    // rank finds the state it now owns.
    cfg_.nodes = opts_.restart_nodes;
    cluster_.reset();  // drain old schedulers before the rebuild
    cluster_ = std::make_unique<ClusterSim>(*clock_, cfg_);
    cluster_->initialize();
  } else {
    for (const u32 idx : failure.nodes()) {
      cluster_->replace_node(idx);
      cluster_->node(idx).initialize();
    }
  }
  injector_.arm(*cluster_, clock_->now());

  // 3. Rewind every engine (survivors included — they trained past the
  // snapshot) to the last checkpoint.
  restore_all();

  const f64 recovery_seconds = clock_->now() - start;
  const u32 lost =
      static_cast<u32>(at_iteration - last_checkpoint_iteration_);
  ++stats_.recoveries;
  stats_.recovery_seconds += recovery_seconds;
  stats_.lost_work_iterations += lost;
  stats_.cancelled_requests += cancelled;

  pending_.add(1, recovery_seconds, lost);
}

std::vector<IterationReport> RecoveryDriver::run(u32 iterations, u32 warmup) {
  if (!initialized_) {
    throw std::logic_error("RecoveryDriver: run before initialize");
  }
  std::vector<IterationReport> completed;  // completed[i] = iteration i
  completed.reserve(iterations);
  u64 i = 0;
  while (i < iterations) {
    injector_.fire_due(*cluster_, i);
    IterationReport report;
    const f64 iteration_start = clock_->now();
    try {
      report = cluster_->run_iteration(i);
    } catch (const NodeFailure& failure) {
      recover(failure, i, iteration_start);
      // Roll back to the snapshot: drop reports being redone and rewind.
      // Dropped reports may already carry an earlier recovery's counters
      // (back-to-back failures inside one checkpoint window); reclaim them
      // into the pending pool so the report stream keeps summing to
      // RecoveryStats.
      const std::size_t keep =
          std::min<std::size_t>(completed.size(), last_checkpoint_iteration_);
      for (std::size_t k = keep; k < completed.size(); ++k) {
        pending_.reclaim(completed[k]);
      }
      completed.resize(keep);
      i = last_checkpoint_iteration_;
      continue;
    }
    pending_.attach(report);
    completed.push_back(std::move(report));
    ++i;
    if (i < iterations && i % opts_.checkpoint_interval == 0) {
      checkpoint_all(i);
    }
  }
  // Trailing snapshot: each run() numbers its iterations from 0, so the
  // final state is re-baselined as iteration 0 of any subsequent run — a
  // failure early in the next run must not rewind into this run's
  // checkpoint cursor (which would skip iterations outright). Taken here,
  // on known-healthy hardware, rather than at the next run's start, where
  // the failure may already have latched.
  checkpoint_all(0);
  if (warmup >= completed.size()) return {};
  // Recovery counters on warm-up reports roll forward onto the first kept
  // report, preserving the invariant that the returned stream sums to
  // RecoveryStats (warmup excludes timings from averages; it must not
  // erase discrete recovery events).
  for (std::size_t k = 0; k < warmup; ++k) {
    completed[warmup].recoveries += completed[k].recoveries;
    completed[warmup].recovery_seconds += completed[k].recovery_seconds;
    completed[warmup].lost_work_iterations +=
        completed[k].lost_work_iterations;
  }
  return {completed.begin() + warmup, completed.end()};
}

u64 cluster_state_checksum(ClusterSim& cluster) {
  u64 sum = 0;
  for (u32 n = 0; n < cluster.node_count(); ++n) {
    NodeSim& node = cluster.node(n);
    for (u32 w = 0; w < node.worker_count(); ++w) {
      sum += node.worker(w).engine().state_checksum();
    }
  }
  return sum;
}

}  // namespace mlpo
