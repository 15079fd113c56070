#include "runtime/cluster.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "runtime/cluster_substrate.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"

namespace mlpo {

NodeFailure::NodeFailure(std::vector<u32> nodes)
    : std::runtime_error([&nodes] {
        std::string what = "NodeFailure: fail-stopped node(s)";
        for (const u32 n : nodes) what += " " + std::to_string(n);
        return what;
      }()),
      nodes_(std::move(nodes)) {}

ClusterSim::ClusterSim(const SimClock& clock, const ClusterConfig& cfg)
    : clock_(&clock), cfg_(cfg) {
  if (cfg_.node.attach_pfs && cfg_.node.substrate == nullptr) {
    // One PFS fabric serves the whole cluster; every node funnels its
    // client channel into it. Its aggregate capacity bounds total PFS
    // traffic — the shared-tier contention the paper flags for future
    // study emerges when pfs_aggregate_factor < node count. A substrate
    // (owned or shared) caches the fabric so rebuilt clusters and
    // co-tenant jobs keep drawing from the same aggregate capacity.
    pfs_ = cfg_.substrate != nullptr
        ? cfg_.substrate->acquire_pfs_fabric(cfg_.node.testbed)
        : cfg_.node.testbed.make_pfs_fabric(clock, "pfs-fabric");
  }
  for (u32 n = 0; n < cfg_.nodes; ++n) {
    nodes_.push_back(std::make_unique<NodeSim>(clock, node_config(n), pfs_));
  }
}

NodeConfig ClusterSim::node_config(u32 idx) const {
  const u32 gpus = cfg_.node.testbed.gpus_per_node;
  NodeConfig node_cfg = cfg_.node;
  node_cfg.total_world = cfg_.nodes * gpus;
  node_cfg.first_rank = static_cast<int>(idx * gpus);
  node_cfg.dp_nodes = cfg_.nodes;
  return node_cfg;
}

void ClusterSim::fail_node(u32 idx) { nodes_.at(idx)->fail_stop(); }

void ClusterSim::replace_node(u32 idx) {
  if (idx >= nodes_.size()) {
    throw std::out_of_range("ClusterSim::replace_node: node " +
                            std::to_string(idx) + " out of range");
  }
  // The old NodeSim's destructor drains its worker schedulers; everything
  // still queued against the dead tiers settles (cancelled or failed)
  // before the replacement comes up.
  nodes_[idx] = std::make_unique<NodeSim>(*clock_, node_config(idx), pfs_);
}

void ClusterSim::initialize() {
  std::vector<std::thread> threads;
  std::exception_ptr error;
  Mutex error_mutex;
  for (auto& node : nodes_) {
    threads.emplace_back([&node, &error, &error_mutex] {
      try {
        node->initialize();
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

IterationReport ClusterSim::run_iteration(u64 iteration) {
  std::vector<IterationReport> reports(nodes_.size());
  std::vector<std::exception_ptr> errors(nodes_.size());
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    threads.emplace_back([&, n] {
      try {
        reports[n] = nodes_[n]->run_iteration(iteration);
      } catch (...) {
        errors[n] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  // Classify failures: injected fail-stops become one structured
  // NodeFailure (the RecoveryDriver's repair signal); anything else is a
  // genuine bug and aborts the run as before.
  std::vector<u32> failed;
  std::vector<std::pair<u32, std::string>> genuine;  // node, what()
  std::exception_ptr other;
  for (std::size_t n = 0; n < errors.size(); ++n) {
    if (!errors[n]) continue;
    try {
      std::rethrow_exception(errors[n]);
    } catch (const FailStopError&) {
      failed.push_back(static_cast<u32>(n));
    } catch (const std::exception& e) {
      if (!other) other = errors[n];
      genuine.emplace_back(static_cast<u32>(n), e.what());
    } catch (...) {
      if (!other) other = errors[n];
      genuine.emplace_back(static_cast<u32>(n), "<non-exception error>");
    }
  }
  if (!failed.empty()) {
    // The fail-stop wins (recovery restores every node from the checkpoint
    // anyway), but a genuine bug on an independent node must not vanish
    // silently behind it.
    for (const auto& [node, what] : genuine) {
      MLPO_LOG_WARN << "ClusterSim: node " << node << " error eclipsed by a "
                    << "concurrent fail-stop: " << what;
    }
    throw NodeFailure(std::move(failed));
  }
  if (other) std::rethrow_exception(other);

  // Synchronous data parallelism: the iteration ends when the slowest node
  // finishes each phase; counters aggregate across the cluster.
  IterationReport merged;
  merged.iteration = iteration;
  for (const auto& r : reports) {
    merged.forward_seconds = std::max(merged.forward_seconds, r.forward_seconds);
    merged.backward_seconds =
        std::max(merged.backward_seconds, r.backward_seconds);
    merged.update_seconds = std::max(merged.update_seconds, r.update_seconds);
    merged.accumulate_counters(r);
  }
  return merged;
}

std::vector<IterationReport> ClusterSim::run(u32 iterations, u32 warmup) {
  std::vector<IterationReport> kept;
  for (u32 i = 0; i < iterations; ++i) {
    IterationReport r = run_iteration(i);
    if (i >= warmup) kept.push_back(std::move(r));
  }
  return kept;
}

}  // namespace mlpo
