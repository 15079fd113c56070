#include "resilience/failure_injector.hpp"

#include <stdexcept>
#include <string>

#include "runtime/cluster.hpp"
#include "util/logging.hpp"

namespace mlpo {

namespace {

// u32 fields must reject negatives at parse time: static_cast would wrap
// -1 to 4294967295, silently turning e.g. the max_recoveries flap bound
// into "unlimited" — the opposite of this module's strict-parse rule.
u32 non_negative_int(const json::Value& doc, const std::string& key,
                     u32 fallback) {
  const i64 value = doc.int_or(key, static_cast<i64>(fallback));
  if (value < 0) {
    throw std::invalid_argument("resilience config: " + key + "=" +
                                std::to_string(value) +
                                " must be non-negative");
  }
  return static_cast<u32>(value);
}

}  // namespace

void FailureEvent::validate() const {
  const bool by_iteration = at_iteration >= 0;
  const bool by_vtime = at_vtime >= 0;
  if (by_iteration == by_vtime) {
    throw std::invalid_argument(
        "FailureEvent: exactly one of at_iteration / at_vtime must be set");
  }
}

std::vector<FailureEvent> failure_schedule_from_json(const json::Value& doc) {
  if (!doc.is_array()) {
    throw std::invalid_argument(
        "failure schedule: expected a JSON array of events");
  }
  std::vector<FailureEvent> schedule;
  for (const auto& entry : doc.as_array()) {
    FailureEvent event;
    const std::string kind = entry.string_or("kind", "node");
    if (kind == "node") {
      event.kind = FailureEvent::Kind::kNode;
    } else if (kind == "path") {
      event.kind = FailureEvent::Kind::kPath;
    } else {
      // Same strictness as the policy registry: fail at parse time naming
      // the known set, not later inside the run loop.
      throw std::invalid_argument("failure schedule: unknown kind '" + kind +
                                  "' (known: node path)");
    }
    event.node = non_negative_int(entry, "node", 0);
    event.path = non_negative_int(entry, "path", 0);
    event.at_iteration = entry.int_or("at_iteration", -1);
    event.at_vtime = entry.number_or("at_vtime", -1);
    event.validate();
    schedule.push_back(event);
  }
  return schedule;
}

ResilienceConfig resilience_config_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument(
        "resilience config: expected a JSON object");
  }
  ResilienceConfig cfg;
  cfg.enabled = doc.bool_or("enabled", true);
  cfg.checkpoint_interval =
      non_negative_int(doc, "checkpoint_interval", cfg.checkpoint_interval);
  if (cfg.checkpoint_interval == 0) {
    throw std::invalid_argument(
        "resilience config: checkpoint_interval must be >= 1");
  }
  cfg.restart_nodes = non_negative_int(doc, "restart_nodes",
                                       cfg.restart_nodes);
  cfg.elastic_sharding =
      doc.bool_or("elastic_sharding", cfg.elastic_sharding);
  cfg.max_recoveries = non_negative_int(doc, "max_recoveries",
                                        cfg.max_recoveries);
  if (doc.contains("failures")) {
    cfg.failures = failure_schedule_from_json(doc.at("failures"));
  }
  return cfg;
}

FailureInjector::FailureInjector(std::vector<FailureEvent> schedule)
    : schedule_(std::move(schedule)), fired_(schedule_.size(), 0),
      armed_(schedule_.size(), 0) {
  for (const auto& event : schedule_) event.validate();
}

void FailureInjector::apply(ClusterSim& cluster, const FailureEvent& event,
                            bool arm_only) {
  if (event.node >= cluster.node_count()) {
    // Possible after an elastic shrink; the hardware the event targeted no
    // longer exists.
    MLPO_LOG_WARN << "FailureInjector: skipping event for node " << event.node
                  << " (cluster now has " << cluster.node_count()
                  << " nodes)";
    return;
  }
  NodeSim& node = cluster.node(event.node);
  const std::size_t path =
      event.kind == FailureEvent::Kind::kNode ? NodeSim::npos : event.path;
  if (arm_only) {
    node.arm_fail_stop(path, event.at_vtime);
  } else if (path == NodeSim::npos) {
    node.fail_stop();
  } else {
    node.arm_fail_stop(path, 0.0);  // dead as of now
  }
}

void FailureInjector::observe_latches(ClusterSim& cluster, f64 now) {
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const FailureEvent& event = schedule_[i];
    if (fired_[i] || event.at_vtime < 0 || !armed_[i]) continue;
    // A still-future deadline cannot have been honoured — a latch dead
    // at this point was killed by some *other* event, and this one must
    // survive onto the replacement hardware.
    if (event.at_vtime > now) continue;
    if (event.node >= cluster.node_count()) continue;
    NodeSim& node = cluster.node(event.node);
    if (event.kind == FailureEvent::Kind::kPath) {
      if (node.failstop_dead(event.path)) fired_[i] = 1;
      continue;
    }
    // Node events armed every path's latch; with the deadline behind us,
    // dead() latches from the deadline alone, so a dead latch means the
    // deadline was honoured while this hardware existed.
    if (node.any_failstop_dead()) fired_[i] = 1;
  }
}

void FailureInjector::arm(ClusterSim& cluster, f64 now) {
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (fired_[i] || schedule_[i].at_vtime < 0) continue;
    if (schedule_[i].at_vtime <= now) {
      // The deadline is behind us, yet observe_latches() never saw any
      // hardware honour it — it expired during initialization or inside a
      // rebuild window. An overdue failure injects late, it does not
      // silently evaporate. (Deadlines the old hardware latched were
      // retired by observe_latches(), so replacements never inherit an
      // already-delivered failure.)
      apply(cluster, schedule_[i], /*arm_only=*/false);
      fired_[i] = 1;
      continue;
    }
    // Left unfired on purpose: a future deadline is re-armed after every
    // rebuild, so it survives elastic restarts of *other* nodes.
    apply(cluster, schedule_[i], /*arm_only=*/true);
    armed_[i] = 1;
  }
}

u32 FailureInjector::fire_due(ClusterSim& cluster, u64 iteration) {
  u32 fired = 0;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const FailureEvent& event = schedule_[i];
    if (fired_[i] || event.at_iteration < 0) continue;
    if (static_cast<u64>(event.at_iteration) > iteration) continue;
    apply(cluster, event, /*arm_only=*/false);
    fired_[i] = 1;
    ++fired;
  }
  return fired;
}

bool FailureInjector::exhausted() const {
  for (const u8 f : fired_) {
    if (!f) return false;
  }
  return true;
}

}  // namespace mlpo
