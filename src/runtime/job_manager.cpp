#include "runtime/job_manager.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <set>
#include <stdexcept>
#include <thread>

#include "runtime/memory_planner.hpp"
#include "util/logging.hpp"

namespace mlpo {

namespace {

/// A job's hard (non-cache) host-memory demand on the shared node: the
/// FP16 gradient-accumulation reserve plus the pinned per-GPU pipeline
/// buffers — the same items the memory planner reports, minus the runtime
/// base the substrate carves out once for everyone.
u64 hard_host_demand(const JobSpec& spec) {
  const TrainerConfig& cfg = spec.config;
  const u64 grad_accum = cfg.model.parameters() * kFp16Bytes;
  const u64 pipeline = 3ull * cfg.testbed.gpus_per_node * cfg.subgroup_params *
                       kOptimStateBytesPerParam;
  return grad_accum + pipeline;
}

u64 per_job_cache_bytes(const JobSpec& spec, u32 cache_subgroups) {
  return static_cast<u64>(cache_subgroups) * spec.config.testbed.gpus_per_node *
         spec.config.subgroup_params * kOptimStateBytesPerParam;
}

void validate_specs(const std::vector<JobSpec>& jobs) {
  if (jobs.empty()) {
    throw std::invalid_argument("JobManager: no jobs configured");
  }
  std::set<std::string> names;
  for (const auto& spec : jobs) {
    if (spec.name.empty()) {
      throw std::invalid_argument("JobManager: every job needs a name");
    }
    if (!names.insert(spec.name).second) {
      throw std::invalid_argument("JobManager: duplicate job name '" +
                                  spec.name + "'");
    }
    if (spec.weight == 0) {
      throw std::invalid_argument("JobManager: job '" + spec.name +
                                  "': weight must be >= 1");
    }
    if (spec.config.nodes != 1) {
      throw std::invalid_argument(
          "JobManager: job '" + spec.name +
          "': borrowed jobs run on the one shared node (nodes must be 1, "
          "got " + std::to_string(spec.config.nodes) + ")");
    }
    if (spec.warmup >= spec.iterations) {
      throw std::invalid_argument("JobManager: job '" + spec.name +
                                  "': warmup must be < iterations");
    }
    if (spec.deadline_seconds < 0) {
      throw std::invalid_argument("JobManager: job '" + spec.name +
                                  "': deadline_seconds must be >= 0");
    }
    // One substrate means one testbed, one clock rate, one storage
    // backend; a job disagreeing with job 0 would silently train against
    // hardware it did not configure.
    const TrainerConfig& head = jobs.front().config;
    if (spec.config.testbed.name != head.testbed.name) {
      throw std::invalid_argument(
          "JobManager: job '" + spec.name + "' selects testbed '" +
          spec.config.testbed.name + "' but the substrate was sized for '" +
          head.testbed.name + "'; all jobs must share one testbed");
    }
    if (spec.config.time_scale != head.time_scale) {
      throw std::invalid_argument(
          "JobManager: job '" + spec.name +
          "' disagrees on time_scale; all jobs share one SimClock");
    }
    if (spec.config.storage.backend != head.storage.backend ||
        spec.config.storage.root != head.storage.root) {
      throw std::invalid_argument(
          "JobManager: job '" + spec.name +
          "' disagrees on the storage backend; all jobs share one NVMe "
          "tier");
    }
  }
}

JobSloStats slo_from_reports(const std::vector<IterationReport>& reports,
                             f64 deadline_seconds) {
  JobSloStats slo;
  slo.iterations = static_cast<u32>(reports.size());
  if (reports.empty()) return slo;
  std::vector<f64> times;
  times.reserve(reports.size());
  f64 total = 0;
  for (const auto& r : reports) {
    const f64 t = r.iteration_seconds();
    times.push_back(t);
    total += t;
    slo.max_iteration_seconds = std::max(slo.max_iteration_seconds, t);
    if (deadline_seconds <= 0 || t <= deadline_seconds) ++slo.deadline_hits;
  }
  slo.hit_rate =
      static_cast<f64>(slo.deadline_hits) / static_cast<f64>(slo.iterations);
  slo.mean_iteration_seconds = total / static_cast<f64>(slo.iterations);
  // p99 by the nearest-rank method; with small windows this is the max.
  const std::size_t rank = std::min(
      times.size() - 1,
      static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<f64>(times.size())) - 1));
  std::nth_element(times.begin(),
                   times.begin() + static_cast<std::ptrdiff_t>(rank),
                   times.end());
  slo.p99_iteration_seconds = times[rank];
  return slo;
}

}  // namespace

JobManager::JobManager(JobManagerConfig cfg) : cfg_(std::move(cfg)) {
  validate_specs(cfg_.jobs);
  if (cfg_.fair_share_quantum_bytes == 0) {
    throw std::invalid_argument(
        "JobManager: fair_share_quantum_bytes must be > 0");
  }
  if (cfg_.io_queue_depth == 0) {
    throw std::invalid_argument("JobManager: io_queue_depth must be > 0");
  }

  const TrainerConfig& head = cfg_.jobs.front().config;
  ClusterSubstrate::SharedConfig shared;
  shared.testbed = head.testbed;
  shared.storage = head.storage;
  // The substrate attaches the PFS channel when any job wants it; a job
  // with attach_pfs false simply never places subgroups there
  // (multipath off).
  shared.attach_pfs = std::any_of(
      cfg_.jobs.begin(), cfg_.jobs.end(),
      [](const JobSpec& s) { return s.config.attach_pfs; });
  shared.fair_share_quantum_bytes = cfg_.fair_share_quantum_bytes;
  shared.io_queue_depth = cfg_.io_queue_depth;
  shared.tier_exclusive_locking = head.engine.tier_exclusive_locking;
  for (std::size_t i = 0; i < cfg_.jobs.size(); ++i) {
    shared.tenant_weights[static_cast<u32>(i) + 1] = cfg_.jobs[i].weight;
  }
  substrate_ = std::make_unique<ClusterSubstrate>(head.time_scale, shared);

  // --- admission ---------------------------------------------------------
  // Pass 1: every job's hard demand (gradient reserve + pinned buffers,
  // plus its explicitly requested cache) is reserved up front; the first
  // job that does not fit is rejected loudly here, before anything runs.
  u32 derive_weight = 0;
  for (const auto& spec : cfg_.jobs) {
    const MemoryPlan plan = plan_memory({spec.config.model, spec.config.testbed,
                                         80ull * GiB, 0,
                                         spec.config.subgroup_params,
                                         spec.config.microbatch, true});
    if (!plan.gpu_fits) {
      throw AdmissionError("admission rejected: job '" + spec.name +
                           "' does not fit in GPU memory:\n" +
                           plan.to_string());
    }
    u64 demand = hard_host_demand(spec);
    if (spec.config.host_cache_override > 0) {
      demand += per_job_cache_bytes(spec, spec.config.host_cache_override);
    } else {
      derive_weight += spec.weight;
    }
    substrate_->reserve_host(spec.name, demand);  // throws AdmissionError
  }
  // Pass 2: jobs without an explicit cache request split the remaining
  // host budget by fair-share weight. A share below the engine's pipeline
  // minimum grants no cache at all (the borrowed NodeSim then takes the
  // same eager-flush fallback a cache-starved owned node does).
  const u64 remaining =
      substrate_->host_budget_bytes() - substrate_->host_reserved_bytes();
  std::vector<u32> cache_override(cfg_.jobs.size(), 0);
  for (std::size_t i = 0; i < cfg_.jobs.size(); ++i) {
    const JobSpec& spec = cfg_.jobs[i];
    if (spec.config.host_cache_override > 0) {
      cache_override[i] = spec.config.host_cache_override;
      continue;
    }
    const u64 share = derive_weight > 0
        ? remaining / derive_weight * spec.weight
        : 0;
    const u64 per_worker = share / spec.config.testbed.gpus_per_node;
    const u64 subgroup_bytes =
        spec.config.subgroup_params * kOptimStateBytesPerParam;
    const u32 subgroups = static_cast<u32>(per_worker / subgroup_bytes);
    if (subgroups >= spec.config.engine.prefetch_ahead + 1) {
      cache_override[i] = subgroups;
      substrate_->reserve_host(spec.name + "#cache",
                               per_job_cache_bytes(spec, subgroups));
    }
  }

  // --- construction ------------------------------------------------------
  for (std::size_t i = 0; i < cfg_.jobs.size(); ++i) {
    const JobSpec& spec = cfg_.jobs[i];
    TrainerConfig job_cfg = spec.config;
    if (cache_override[i] > 0) job_cfg.host_cache_override = cache_override[i];
    MLPO_LOG_INFO << "JobManager: admitted job '" << spec.name << "' (tenant "
                  << (i + 1) << ", weight " << spec.weight << ", cache "
                  << cache_override[i] << " subgroups/worker)";
    trainers_.push_back(std::make_unique<Trainer>(
        job_cfg, *substrate_, static_cast<u32>(i) + 1));
  }
}

JobManager::~JobManager() = default;

std::vector<JobResult> JobManager::run() {
  const std::size_t n = trainers_.size();
  std::vector<JobResult> results(n);
  std::vector<std::exception_ptr> errors(n);

  const auto one_job = [&](std::size_t i) {
    const JobSpec& spec = cfg_.jobs[i];
    Trainer& trainer = *trainers_[i];
    trainer.initialize();
    std::vector<IterationReport> reports =
        trainer.run(spec.iterations, spec.warmup);
    JobResult& result = results[i];
    result.name = spec.name;
    result.tenant = trainer.tenant();
    result.weight = spec.weight;
    result.slo = slo_from_reports(reports, spec.deadline_seconds);
    result.reports = std::move(reports);
    result.state_checksum = cluster_state_checksum(trainer.cluster());
    if (const RecoveryStats* rec = trainer.recovery_stats()) {
      result.recovery = *rec;
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        one_job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < n; ++i) {
    if (!errors[i]) continue;
    MLPO_LOG_WARN << "JobManager: job '" << cfg_.jobs[i].name << "' failed";
    std::rethrow_exception(errors[i]);
  }
  return results;
}

JobManagerConfig job_manager_config_from_json(const json::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("jobs config: document must be a JSON object");
  }
  JobManagerConfig cfg;
  cfg.fair_share_quantum_bytes = static_cast<u64>(doc.int_or(
      "fair_share_quantum_bytes",
      static_cast<i64>(cfg.fair_share_quantum_bytes)));
  cfg.io_queue_depth = static_cast<std::size_t>(
      doc.int_or("io_queue_depth", static_cast<i64>(cfg.io_queue_depth)));
  if (!doc.contains("jobs") || !doc.at("jobs").is_array()) {
    throw std::invalid_argument(
        "jobs config: a non-empty \"jobs\" array is required");
  }
  // Strict like the policy registry: unknown keys abort naming the known
  // set — a typoed "wieght" must not silently weigh 1.
  static const std::set<std::string> known{
      "name", "weight", "deadline_seconds", "iterations", "warmup", "config"};
  for (const auto& entry : doc.at("jobs").as_array()) {
    if (!entry.is_object()) {
      throw std::invalid_argument("jobs config: each job must be an object");
    }
    for (const auto& [key, value] : entry.as_object()) {
      (void)value;
      if (known.count(key) == 0) {
        std::string known_list;
        for (const auto& k : known) known_list += " " + k;
        throw std::invalid_argument("jobs config: unknown job key '" + key +
                                    "' (known:" + known_list + ")");
      }
    }
    JobSpec spec;
    spec.name = entry.string_or("name", "");
    const i64 weight = entry.int_or("weight", 1);
    if (weight < 1) {
      throw std::invalid_argument("jobs config: job '" + spec.name +
                                  "': weight must be >= 1 (got " +
                                  std::to_string(weight) + ")");
    }
    spec.weight = static_cast<u32>(weight);
    spec.deadline_seconds = entry.number_or("deadline_seconds", 0);
    const i64 iterations = entry.int_or("iterations", 10);
    const i64 warmup = entry.int_or("warmup", 2);
    if (iterations < 1 || warmup < 0) {
      throw std::invalid_argument("jobs config: job '" + spec.name +
                                  "': iterations must be >= 1 and warmup "
                                  ">= 0");
    }
    spec.iterations = static_cast<u32>(iterations);
    spec.warmup = static_cast<u32>(warmup);
    if (entry.contains("config")) {
      spec.config = trainer_config_from_json(entry.at("config"));
    }
    cfg.jobs.push_back(std::move(spec));
  }
  // Spec-level validation (names, weights, cross-job agreement) runs again
  // inside the JobManager constructor; fail the cheap checks here too so
  // a config tool can validate without building a substrate.
  validate_specs(cfg.jobs);
  return cfg;
}

JobManagerConfig job_manager_config_from_json(const std::string& text) {
  return job_manager_config_from_json(json::parse(text));
}

}  // namespace mlpo
