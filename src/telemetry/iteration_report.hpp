// Aggregated per-iteration metrics — the exact quantities the paper reports:
// phase breakdown (Figs. 7, 11, 13-15), update throughput in Mparams/s
// (Figs. 8, 12), effective I/O throughput 2*bytes/(t_r+t_w) (Fig. 9), and
// per-subgroup transfer traces (Fig. 5).
//
// Only what a bench, example or the repo benchmark reads lives here (lint
// invariant #11). Counters with another owner are read from that owner:
// scheduler activity from IoScheduler::stats()/tenant_stats(), gradient
// pool traffic from OffloadEngine::scratch_stats(), cancelled requests
// from RecoveryStats, per-job SLOs from JobSloStats.
#pragma once

#include <vector>

#include "util/common.hpp"

namespace mlpo {

struct SubgroupTrace {
  u32 subgroup_id;
  u64 sim_bytes_read;
  u64 sim_bytes_written;
  f64 read_seconds;     ///< virtual time spent fetching
  f64 write_seconds;    ///< virtual time spent flushing
  f64 compute_seconds;  ///< CPU update time
  bool host_cache_hit;  ///< subgroup served from host memory, no fetch

  f64 read_throughput() const {
    return read_seconds > 0 ? static_cast<f64>(sim_bytes_read) / read_seconds : 0;
  }
  f64 write_throughput() const {
    return write_seconds > 0 ? static_cast<f64>(sim_bytes_written) / write_seconds
                             : 0;
  }
};

struct IterationReport {
  u64 iteration = 0;
  f64 forward_seconds = 0;
  f64 backward_seconds = 0;
  f64 update_seconds = 0;
  u64 params_updated = 0;          ///< simulated params through the optimizer
  u64 sim_bytes_fetched = 0;       ///< update-phase tier reads
  u64 sim_bytes_flushed = 0;       ///< update-phase tier writes
  f64 fetch_seconds = 0;           ///< accumulated per-subgroup fetch time
  f64 flush_seconds = 0;           ///< accumulated per-subgroup flush time
  f64 update_compute_seconds = 0;  ///< accumulated CPU update kernel time
  u32 host_cache_hits = 0;
  u32 subgroups_processed = 0;

  // Always zero: the task-graph executor that set these is gone. Kept only
  // because the repo benchmark (benchmark/src/workloads.cpp) still reads
  // them; remove them together with that reader in the next change to the
  // benchmark.
  u64 graph_frontier_high_water = 0;
  u64 graph_tasks_stolen = 0;
  f64 graph_executor_idle_seconds = 0;

  // Resilience counters (set by the RecoveryDriver on the first iteration
  // after a recovery; zero on failure-free iterations).
  u32 recoveries = 0;            ///< recoveries charged to this iteration
  f64 recovery_seconds = 0;      ///< virtual time spent recovering before it
  u32 lost_work_iterations = 0;  ///< completed iterations rolled back/redone

  std::vector<SubgroupTrace> traces;

  /// Fold another report's additive counters (and traces) into this one.
  /// This is the single merge used by the node- and cluster-level report
  /// merges and by average_reports, so no aggregation level can silently
  /// drop a counter. Phase walls are *not* touched — each
  /// aggregation level combines those per its own semantics (max across
  /// parallel workers/nodes, mean across iterations).
  void accumulate_counters(const IterationReport& r);

  f64 iteration_seconds() const {
    return forward_seconds + backward_seconds + update_seconds;
  }

  /// Millions of parameters updated per second of update phase (Fig. 8/12).
  f64 update_throughput_mparams() const {
    return update_seconds > 0
        ? static_cast<f64>(params_updated) / 1e6 / update_seconds
        : 0;
  }

  /// Effective I/O throughput per the paper's definition (§4.3):
  /// 2 * subgroup_bytes / (read_time + write_time), averaged over subgroups.
  /// Cache hits transfer nothing and are excluded, matching how the paper's
  /// counter only sees issued I/O.
  f64 effective_io_throughput() const;

  /// Fraction of the update phase spent waiting on tier I/O (Fig. 3).
  f64 update_io_fraction() const {
    const f64 io = fetch_seconds + flush_seconds;
    const f64 denom = io + update_compute_seconds;
    return denom > 0 ? io / denom : 0;
  }
};

/// Average a set of reports field-wise (warmup exclusion is the caller's
/// job, as in the paper's "first 2 of 10 iterations are warmups").
IterationReport average_reports(const std::vector<IterationReport>& reports);

}  // namespace mlpo
