// JobManager: multi-tenant construction, admission control, strict "jobs"
// config parsing, owned-vs-borrowed single-job equivalence, and
// tenant-scoped failure isolation on the shared substrate.
#include <gtest/gtest.h>

#include "runtime/job_manager.hpp"

namespace mlpo {
namespace {

TrainerConfig fast_config() {
  TrainerConfig cfg;
  cfg.model = ModelConfig{"tiny", 4, 4096, 32};
  cfg.elem_scale = 65536;
  cfg.time_scale = 2000.0;
  cfg.host_cache_override = 2;
  return cfg;
}

JobSpec fast_job(const std::string& name, u32 weight = 1) {
  JobSpec spec;
  spec.name = name;
  spec.config = fast_config();
  spec.weight = weight;
  spec.iterations = 3;
  spec.warmup = 1;
  return spec;
}

TEST(JobManager, SingleJobMatchesOwnedTrainer) {
  // The same configuration through the owned-substrate Trainer and through
  // a one-job JobManager must converge to the same optimizer state: the
  // borrowed path re-routes I/O through the shared tenant-fair scheduler,
  // but training arithmetic is deterministic.
  Trainer owned(fast_config());
  owned.initialize();
  owned.run(3, 1);
  const u64 owned_sum = cluster_state_checksum(owned.cluster());

  JobManagerConfig cfg;
  cfg.jobs.push_back(fast_job("solo"));
  JobManager manager(std::move(cfg));
  const auto results = manager.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state_checksum, owned_sum);
  EXPECT_EQ(results[0].tenant, 1u);
  EXPECT_EQ(results[0].reports.size(), 2u);
}

TEST(JobManager, ReportsCarryTenantSlices) {
  JobManagerConfig cfg;
  cfg.jobs.push_back(fast_job("a"));
  cfg.jobs.push_back(fast_job("b", /*weight=*/3));
  JobManager manager(std::move(cfg));
  const auto results = manager.run();
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const JobResult& result = results[i];
    EXPECT_EQ(result.tenant, static_cast<u32>(i) + 1);
    ASSERT_FALSE(result.reports.empty());
    for (const auto& r : result.reports) {
      EXPECT_GT(r.iteration_seconds(), 0.0);
    }
    EXPECT_EQ(result.slo.iterations, result.reports.size());
    EXPECT_GT(result.slo.p99_iteration_seconds, 0.0);
    EXPECT_GE(result.slo.max_iteration_seconds,
              result.slo.p99_iteration_seconds);
  }
}

TEST(JobManager, DeadlineAccounting) {
  JobManagerConfig cfg;
  JobSpec strict = fast_job("strict");
  strict.deadline_seconds = 1e-9;  // unmeetable: every iteration misses
  JobSpec loose = fast_job("loose");
  loose.deadline_seconds = 1e9;  // unmissable
  cfg.jobs.push_back(strict);
  cfg.jobs.push_back(loose);
  JobManager manager(std::move(cfg));
  const auto results = manager.run();
  EXPECT_EQ(results[0].slo.deadline_hits, 0u);
  EXPECT_EQ(results[0].slo.hit_rate, 0.0);
  EXPECT_EQ(results[1].slo.deadline_hits, results[1].slo.iterations);
  EXPECT_EQ(results[1].slo.hit_rate, 1.0);
}

TEST(JobManager, AdmissionRejectsOvercommittedHost) {
  // Shrink the host until even one tiny job's gradient reserve + pinned
  // buffers cannot fit: the manager must reject at construction with the
  // budget arithmetic, not OOM later.
  JobManagerConfig cfg;
  JobSpec spec = fast_job("greedy");
  spec.config.testbed.host_memory_bytes = 281 * GiB;  // 1 GiB of budget
  cfg.jobs.push_back(spec);
  EXPECT_THROW(JobManager{std::move(cfg)}, AdmissionError);
}

TEST(JobManager, AdmissionRejectsSecondJobNotFirst) {
  // Budget that holds one job's demand but not two: the first is admitted,
  // the second rejected by name.
  JobSpec probe = fast_job("probe");
  const u64 hard = probe.config.model.parameters() * kFp16Bytes +
                   3ull * probe.config.testbed.gpus_per_node *
                       probe.config.subgroup_params * kOptimStateBytesPerParam;
  const u64 cache = static_cast<u64>(probe.config.host_cache_override) *
                    probe.config.testbed.gpus_per_node *
                    probe.config.subgroup_params * kOptimStateBytesPerParam;
  JobManagerConfig cfg;
  JobSpec first = fast_job("first");
  JobSpec second = fast_job("second");
  const u64 budget = (hard + cache) + (hard + cache) / 2;
  first.config.testbed.host_memory_bytes = 280 * GiB + budget;
  second.config.testbed.host_memory_bytes = 280 * GiB + budget;
  cfg.jobs.push_back(first);
  cfg.jobs.push_back(second);
  try {
    JobManager manager(std::move(cfg));
    FAIL() << "expected AdmissionError";
  } catch (const AdmissionError& e) {
    EXPECT_NE(std::string(e.what()).find("second"), std::string::npos)
        << e.what();
  }
}

TEST(JobManager, ValidationRejectsBadSpecs) {
  {
    JobManagerConfig cfg;  // no jobs
    EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
  }
  {
    JobManagerConfig cfg;
    cfg.jobs.push_back(fast_job("dup"));
    cfg.jobs.push_back(fast_job("dup"));
    EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
  }
  {
    JobManagerConfig cfg;
    cfg.jobs.push_back(fast_job("zero-weight", 1));
    cfg.jobs.back().weight = 0;
    EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
  }
  {
    JobManagerConfig cfg;
    cfg.jobs.push_back(fast_job("multi-node"));
    cfg.jobs.back().config.nodes = 2;
    EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
  }
  {
    JobManagerConfig cfg;
    cfg.jobs.push_back(fast_job("t1"));
    cfg.jobs.push_back(fast_job("t2"));
    cfg.jobs.back().config.time_scale = 123.0;  // clock disagreement
    EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
  }
}

TEST(JobManager, BorrowedTrainerRejectsPathFailures) {
  JobManagerConfig cfg;
  JobSpec spec = fast_job("pathy");
  spec.config.resilience.enabled = true;
  FailureEvent event;
  event.kind = FailureEvent::Kind::kPath;
  event.at_iteration = 1;
  spec.config.resilience.failures.push_back(event);
  cfg.jobs.push_back(spec);
  EXPECT_THROW(JobManager{std::move(cfg)}, std::invalid_argument);
}

TEST(JobManager, TenantScopedFailureLeavesNeighbourIntact) {
  // Reference: the surviving job alone on its own manager.
  const u64 solo_sum = [] {
    JobManagerConfig cfg;
    cfg.jobs.push_back(fast_job("survivor"));
    JobManager manager(std::move(cfg));
    return manager.run().at(0).state_checksum;
  }();

  // Same job next to a tenant that fail-stops mid-run and recovers. The
  // victim's loss cancels only its own queued I/O; the survivor's state
  // must match its uncontended reference bit for bit.
  JobManagerConfig cfg;
  cfg.jobs.push_back(fast_job("survivor"));
  JobSpec victim = fast_job("victim");
  victim.config.resilience.enabled = true;
  victim.config.resilience.checkpoint_interval = 1;
  FailureEvent event;
  event.kind = FailureEvent::Kind::kNode;
  event.at_iteration = 1;
  victim.config.resilience.failures.push_back(event);
  cfg.jobs.push_back(victim);
  JobManager manager(std::move(cfg));
  const auto results = manager.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].state_checksum, solo_sum);
  EXPECT_EQ(results[1].recovery.failures, 1u);
  EXPECT_EQ(results[1].recovery.recoveries, 1u);
  // The recovered victim still trained to completion.
  EXPECT_EQ(results[1].reports.size(), 2u);
}

TEST(JobManagerConfigJson, ParsesFullDocument) {
  const auto cfg = job_manager_config_from_json(std::string(R"({
    "fair_share_quantum_bytes": 524288,
    "io_queue_depth": 128,
    "jobs": [
      {"name": "prod", "weight": 3, "deadline_seconds": 40,
       "iterations": 5, "warmup": 1,
       "config": {"model": "70B", "time_scale": 500}},
      {"name": "research", "config": {"model": "40B", "time_scale": 500}}
    ]
  })"));
  EXPECT_EQ(cfg.fair_share_quantum_bytes, 524288u);
  EXPECT_EQ(cfg.io_queue_depth, 128u);
  ASSERT_EQ(cfg.jobs.size(), 2u);
  EXPECT_EQ(cfg.jobs[0].name, "prod");
  EXPECT_EQ(cfg.jobs[0].weight, 3u);
  EXPECT_EQ(cfg.jobs[0].deadline_seconds, 40.0);
  EXPECT_EQ(cfg.jobs[0].iterations, 5u);
  EXPECT_EQ(cfg.jobs[0].config.model.name, "70B");
  EXPECT_EQ(cfg.jobs[1].weight, 1u);
  EXPECT_EQ(cfg.jobs[1].config.model.name, "40B");
}

TEST(JobManagerConfigJson, StrictlyRejectsMalformedDocuments) {
  // Unknown job key aborts naming the known set (a typo must not silently
  // fall back to a default).
  try {
    job_manager_config_from_json(std::string(
        R"({"jobs": [{"name": "a", "wieght": 2}]})"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("wieght"), std::string::npos) << what;
    EXPECT_NE(what.find("weight"), std::string::npos) << what;
  }
  // Missing / empty jobs array.
  EXPECT_THROW(job_manager_config_from_json(std::string("{}")),
               std::invalid_argument);
  EXPECT_THROW(job_manager_config_from_json(std::string(R"({"jobs": []})")),
               std::invalid_argument);
  // Duplicate names, bad weight, bad warmup.
  EXPECT_THROW(job_manager_config_from_json(std::string(
                   R"({"jobs": [{"name": "a"}, {"name": "a"}]})")),
               std::invalid_argument);
  EXPECT_THROW(job_manager_config_from_json(std::string(
                   R"({"jobs": [{"name": "a", "weight": 0}]})")),
               std::invalid_argument);
  EXPECT_THROW(job_manager_config_from_json(std::string(
                   R"({"jobs": [{"name": "a", "iterations": 2,
                                 "warmup": 2}]})")),
               std::invalid_argument);
}

}  // namespace
}  // namespace mlpo
