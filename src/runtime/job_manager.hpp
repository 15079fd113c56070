// Multi-tenant orchestration (the paper's shared-substrate outlook: several
// training jobs offloading optimizer state onto the same node-local NVMe
// and PFS): a JobManager builds one shared-mode ClusterSubstrate and runs
// several Trainer-shaped jobs over it concurrently — one SimClock, one tier
// set, one tenant-fair IoScheduler.
//
// Jobs are admitted, not hoped for: each job's host-memory demand (gradient
// accumulation reserve, pinned I/O buffers, host cache) is computed up
// front via the memory planner and reserved on the substrate; a job that
// does not fit is rejected with a loud AdmissionError before anything
// runs, instead of OOM-ing the node mid-training. I/O bandwidth is shared
// by weighted deficit-round-robin per tenant (see IoScheduler), so a
// heavy job cannot starve a light one, while intra-job priority classes
// (demand-prefetch over lazy-flush) still hold within each tenant's share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "resilience/recovery_driver.hpp"
#include "runtime/cluster_substrate.hpp"
#include "runtime/trainer.hpp"

namespace mlpo {

/// One tenant job: a full TrainerConfig plus its share of the substrate.
struct JobSpec {
  std::string name;
  TrainerConfig config;
  /// Fair-share weight on the shared I/O scheduler (>= 1).
  u32 weight = 1;
  /// Per-iteration SLO deadline in virtual seconds; 0 = no deadline
  /// (every iteration counts as a hit).
  f64 deadline_seconds = 0;
  u32 iterations = 10;
  u32 warmup = 2;
};

/// Per-job SLO accounting over the post-warmup window.
struct JobSloStats {
  u32 iterations = 0;
  u32 deadline_hits = 0;
  f64 hit_rate = 1.0;
  f64 mean_iteration_seconds = 0;
  f64 p99_iteration_seconds = 0;
  f64 max_iteration_seconds = 0;
};

struct JobResult {
  std::string name;
  u32 tenant = 0;
  u32 weight = 1;
  /// Post-warmup reports; `slo` is computed from their iteration times.
  std::vector<IterationReport> reports;
  u64 state_checksum = 0;
  JobSloStats slo;
  /// Copied from the job's RecoveryDriver (zeroes on resilience-free jobs).
  RecoveryStats recovery;
};

struct JobManagerConfig {
  std::vector<JobSpec> jobs;
  /// DRR byte quantum per visit per unit weight on the shared scheduler.
  u64 fair_share_quantum_bytes = 1 << 20;
  /// Per-tenant per-channel queue bound on the shared scheduler.
  std::size_t io_queue_depth = 256;
};

class JobManager {
 public:
  /// Validates the specs (names unique and non-empty, weights >= 1, every
  /// job single-node on the same testbed/time_scale/storage), builds the
  /// shared substrate, admits each job's host-memory demand
  /// (AdmissionError on rejection), and constructs the borrowed Trainers.
  /// Tenant ids are 1-based in spec order (0 stays the single-job default
  /// tenant).
  explicit JobManager(JobManagerConfig cfg);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  const JobSpec& spec(std::size_t i) const { return cfg_.jobs.at(i); }
  Trainer& job(std::size_t i) { return *trainers_.at(i); }
  ClusterSubstrate& substrate() { return *substrate_; }

  /// Initialize every job (parallel across jobs), then run them to their
  /// iteration counts concurrently — each job on its own thread, all over
  /// the shared substrate. Returns per-job results in spec order. A job
  /// that throws aborts the whole run with its error (after the other
  /// jobs finish or fail).
  std::vector<JobResult> run();

 private:
  JobManagerConfig cfg_;
  std::unique_ptr<ClusterSubstrate> substrate_;
  std::vector<std::unique_ptr<Trainer>> trainers_;
};

/// Parse a JobManagerConfig from a JSON document with a "jobs" array:
///   {
///     "fair_share_quantum_bytes": 1048576,   // optional
///     "io_queue_depth": 256,                 // optional
///     "jobs": [
///       {
///         "name": "prod-40b",                // required, unique
///         "weight": 2,                       // optional, >= 1
///         "deadline_seconds": 40,            // optional per-iteration SLO
///         "iterations": 10, "warmup": 2,     // optional
///         "config": { ... }                  // TrainerConfig JSON
///       }, ...
///     ]
///   }
/// Strict like the policy registry: unknown keys in a job entry abort with
/// the known set; an empty or missing "jobs" array, duplicate names, and
/// out-of-range numbers abort at parse time.
JobManagerConfig job_manager_config_from_json(const json::Value& doc);
JobManagerConfig job_manager_config_from_json(const std::string& text);

}  // namespace mlpo
