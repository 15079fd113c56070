#include "telemetry/iteration_report.hpp"

#include <algorithm>
#include <stdexcept>

namespace mlpo {

f64 IterationReport::effective_io_throughput() const {
  f64 total_thru = 0;
  u32 counted = 0;
  for (const auto& t : traces) {
    const f64 io_time = t.read_seconds + t.write_seconds;
    if (io_time <= 0) continue;
    total_thru += static_cast<f64>(t.sim_bytes_read + t.sim_bytes_written) /
                  io_time;
    ++counted;
  }
  return counted > 0 ? total_thru / counted : 0;
}

void IterationReport::accumulate_counters(const IterationReport& r) {
  params_updated += r.params_updated;
  sim_bytes_fetched += r.sim_bytes_fetched;
  sim_bytes_flushed += r.sim_bytes_flushed;
  fetch_seconds += r.fetch_seconds;
  flush_seconds += r.flush_seconds;
  update_compute_seconds += r.update_compute_seconds;
  host_cache_hits += r.host_cache_hits;
  subgroups_processed += r.subgroups_processed;
  // The high-water mark merges as max; the other graph counters are
  // additive.
  graph_frontier_high_water =
      std::max(graph_frontier_high_water, r.graph_frontier_high_water);
  graph_tasks_stolen += r.graph_tasks_stolen;
  graph_executor_idle_seconds += r.graph_executor_idle_seconds;
  recoveries += r.recoveries;
  recovery_seconds += r.recovery_seconds;
  lost_work_iterations += r.lost_work_iterations;
  // Traces concatenate: per-subgroup distributions remain inspectable.
  traces.insert(traces.end(), r.traces.begin(), r.traces.end());
}

IterationReport average_reports(const std::vector<IterationReport>& reports) {
  if (reports.empty()) {
    throw std::invalid_argument("average_reports: no reports");
  }
  IterationReport avg;
  const f64 n = static_cast<f64>(reports.size());
  for (const auto& r : reports) {
    avg.forward_seconds += r.forward_seconds;
    avg.backward_seconds += r.backward_seconds;
    avg.update_seconds += r.update_seconds;
    avg.accumulate_counters(r);
  }
  avg.forward_seconds /= n;
  avg.backward_seconds /= n;
  avg.update_seconds /= n;
  avg.params_updated = static_cast<u64>(static_cast<f64>(avg.params_updated) / n);
  avg.sim_bytes_fetched =
      static_cast<u64>(static_cast<f64>(avg.sim_bytes_fetched) / n);
  avg.sim_bytes_flushed =
      static_cast<u64>(static_cast<f64>(avg.sim_bytes_flushed) / n);
  avg.fetch_seconds /= n;
  avg.flush_seconds /= n;
  avg.update_compute_seconds /= n;
  avg.host_cache_hits =
      static_cast<u32>(static_cast<f64>(avg.host_cache_hits) / n);
  avg.subgroups_processed =
      static_cast<u32>(static_cast<f64>(avg.subgroups_processed) / n);
  // graph_frontier_high_water stays the max (a high-water mark has no
  // meaningful mean); the additive graph counters average per iteration.
  avg.graph_tasks_stolen =
      static_cast<u64>(static_cast<f64>(avg.graph_tasks_stolen) / n);
  avg.graph_executor_idle_seconds /= n;
  // Recovery counters stay *totals* across the averaged window: recoveries
  // are rare discrete events, and "0.33 recoveries per iteration" would
  // round to zero and hide them.
  return avg;
}

}  // namespace mlpo
