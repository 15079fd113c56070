// The benchmark's workloads and the closed-loop runner that measures them.
//
// Every workload drives the public facade only: Trainer +
// Trainer::cluster().run_iteration(i) for single jobs, JobManager-admitted
// Trainers for the multi-tenant one. One driver thread per job starts
// iteration i+1 when iteration i returns.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"
#include "util/common.hpp"
#include "util/json.hpp"

namespace mlpo::benchmark {

struct WorkloadInfo {
  std::string name;
  std::string why;  ///< the mechanism it exercises and what it bypasses
};

/// Every workload, in the order `--list` prints them.
const std::vector<WorkloadInfo>& workloads();
bool is_workload(const std::string& name);

struct RunOptions {
  std::string workload;
  u64 seed = 0;
  /// Wall seconds of the measured loop (each job keeps starting
  /// iterations until this much time has passed since measurement began).
  f64 seconds = 20;
  bool trace = false;
  /// Scratch directory (default trace location).
  std::filesystem::path work_dir = "mlpo-benchmark-work";
  u32 warmup = 2;
  /// Measured iterations per job at least (time-bounded runs) or exactly
  /// (when fixed_iterations is set). 100 leaves 10 samples beyond p90.
  u32 min_iterations = 100;
  bool fixed_iterations = false;
  /// Constructions (+ initialize) timed for setup_s; the last one runs.
  u32 setup_repeats = 3;
  /// Wall seconds per kernel in the traced run's kernel probe.
  f64 probe_seconds = 0.1;
};

/// One job's correctness check: the measured run's state checksum against
/// a cpu_only reference that replays the same iteration indices.
struct JobCheck {
  std::string job;
  u64 measured = 0;
  u64 reference = 0;
  u64 iterations = 0;  ///< warmup + measured, all replayed by the reference
};

struct RunResult {
  MetricValues end_to_end;
  MetricValues per_layer;
  u64 attempted = 0;  ///< I/O requests submitted in the measured window
  u64 failed = 0;     ///< of those, failed or cancelled
  std::vector<JobCheck> checks;
  json::Object environment;

  bool checksums_match() const {
    for (const auto& c : checks) {
      if (c.measured != c.reference) return false;
    }
    return !checks.empty();
  }
};

/// Run one workload end to end: timed setup, warmup, measured loop, (when
/// tracing) kernel probe, and the reference replay. Spans go to `tracer`.
RunResult run_workload(const RunOptions& opts, Tracer& tracer);

}  // namespace mlpo::benchmark
