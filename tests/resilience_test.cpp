// Resilience layer: FailStopTier semantics, failure-schedule parsing and
// injection, scheduler cancellation, and RecoveryDriver repairs.
#include <gtest/gtest.h>

#include <future>

#include "io/io_batch.hpp"
#include "resilience/recovery_driver.hpp"
#include "resilience_test_util.hpp"
#include "runtime/trainer.hpp"
#include "tiers/failstop_tier.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo {
namespace {

using test::make_cluster_config;
using test::node_failure_at;
using test::tiny_model;

TEST(FailStopTier, ForwardsUntilKilledThenThrows) {
  SimClock clock(1000.0);
  auto tier = std::make_shared<FailStopTier>(
      "t+failstop", std::make_shared<MemoryTier>("t"), clock);
  const std::vector<u8> data{1, 2, 3};
  tier->write("k", data, 0);
  EXPECT_TRUE(tier->exists("k"));
  EXPECT_FALSE(tier->dead());

  tier->kill();
  EXPECT_TRUE(tier->dead());
  std::vector<u8> out(3);
  EXPECT_THROW(tier->read("k", out, 0), FailStopError);
  EXPECT_THROW(tier->write("k", data, 0), FailStopError);
  EXPECT_THROW((void)tier->exists("k"), FailStopError);
  EXPECT_THROW(tier->peek("k", out), FailStopError);

  tier->revive();
  EXPECT_FALSE(tier->dead());
  tier->read("k", out, 0);
  EXPECT_EQ(out, data);
}

TEST(FailStopTier, ArmedDeadlineLatchesViaSimClock) {
  SimClock clock(10000.0);
  auto tier = std::make_shared<FailStopTier>(
      "t+failstop", std::make_shared<MemoryTier>("t"), clock);
  const std::vector<u8> data{7};
  tier->arm(clock.now() + 0.5);
  tier->write("k", data, 0);  // still alive before the deadline
  clock.sleep_for(1.0);
  EXPECT_TRUE(tier->dead());
  EXPECT_THROW(tier->write("k", data, 0), FailStopError);
  // The latch holds even though arm() was a point-in-time trigger.
  EXPECT_THROW(tier->write("k", data, 0), FailStopError);
}

TEST(FailureSchedule, ParsesFromJsonAndRejectsUnknownKind) {
  const auto schedule = failure_schedule_from_json(json::parse(
      R"([{"kind": "node", "node": 1, "at_iteration": 3},
          {"kind": "path", "node": 0, "path": 1, "at_vtime": 2.5}])"));
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[0].kind, FailureEvent::Kind::kNode);
  EXPECT_EQ(schedule[0].node, 1u);
  EXPECT_EQ(schedule[0].at_iteration, 3);
  EXPECT_EQ(schedule[1].kind, FailureEvent::Kind::kPath);
  EXPECT_EQ(schedule[1].path, 1u);
  EXPECT_DOUBLE_EQ(schedule[1].at_vtime, 2.5);

  EXPECT_THROW(failure_schedule_from_json(json::parse(
                   R"([{"kind": "gamma-ray", "node": 0, "at_iteration": 1}])")),
               std::invalid_argument);
  // A trigger is mandatory — an event that never fires is a config bug.
  EXPECT_THROW(failure_schedule_from_json(
                   json::parse(R"([{"kind": "node", "node": 0}])")),
               std::invalid_argument);
  // Negative u32 fields must not wrap through the cast.
  EXPECT_THROW(failure_schedule_from_json(json::parse(
                   R"([{"kind": "node", "node": -1, "at_iteration": 1}])")),
               std::invalid_argument);
  EXPECT_THROW(resilience_config_from_json(
                   json::parse(R"({"max_recoveries": -1})")),
               std::invalid_argument);
  EXPECT_THROW(resilience_config_from_json(
                   json::parse(R"({"checkpoint_interval": -2})")),
               std::invalid_argument);
}

TEST(FailureInjector, FiresIterationEventsExactlyOnce) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_cluster_config(2));
  FailureInjector injector({node_failure_at(1, 2)});
  EXPECT_EQ(injector.fire_due(cluster, 0), 0u);
  EXPECT_EQ(injector.fire_due(cluster, 2), 1u);
  EXPECT_TRUE(cluster.node(1).failstop(0)->dead());
  // Rewinds (recovery) must not replay the event.
  EXPECT_EQ(injector.fire_due(cluster, 2), 0u);
  EXPECT_TRUE(injector.exhausted());
}

TEST(FailureInjector, ArmsVtimeEventsOnWrappers) {
  // Scale chosen so the deadline stays comfortably in the real-time future
  // across the arm() call even on slow (sanitized) builds.
  SimClock clock(100.0);
  ClusterSim cluster(clock, make_cluster_config(1));
  FailureEvent event;
  event.kind = FailureEvent::Kind::kPath;
  event.node = 0;
  event.path = 0;
  event.at_vtime = clock.now() + 10.0;  // 100 ms real
  FailureInjector injector({event});
  injector.arm(cluster, clock.now());
  ASSERT_LT(clock.now(), event.at_vtime)
      << "arm() outran the deadline; raise at_vtime";
  clock.sleep_until(event.at_vtime + 1.0);
  EXPECT_TRUE(cluster.node(0).failstop(0)->dead());
  EXPECT_FALSE(cluster.node(0).failstop(1)->dead()) << "PFS path unaffected";
}

TEST(FailureInjector, FutureVtimeEventsSurviveRebuildsPastOnesDoNot) {
  // Modest time scale: the deadline must still be comfortably in the
  // future (in real terms) while two clusters are constructed.
  SimClock clock(100.0);
  FailureEvent event;
  event.kind = FailureEvent::Kind::kNode;
  event.node = 0;
  event.at_vtime = clock.now() + 20.0;  // 200 ms real
  FailureInjector injector({event});
  {
    ClusterSim cluster(clock, make_cluster_config(1));
    injector.arm(cluster, clock.now());
  }
  // The deadline is still in the future when a rebuild (of another node,
  // conceptually) happens: the schedule must carry over.
  ClusterSim rebuilt(clock, make_cluster_config(1));
  injector.arm(rebuilt, clock.now());
  ASSERT_LT(clock.now(), event.at_vtime)
      << "construction outran the deadline; raise at_vtime";
  clock.sleep_until(event.at_vtime + 1.0);
  EXPECT_TRUE(rebuilt.node(0).failstop(0)->dead());

  // The RecoveryDriver's protocol: record the honoured deadline before
  // tearing the latched hardware down. The replacement then does not
  // inherit the already-delivered failure — recovery would otherwise loop
  // on the same event.
  injector.observe_latches(rebuilt, clock.now());
  ClusterSim replacement(clock, make_cluster_config(1));
  injector.arm(replacement, clock.now());
  clock.sleep_for(1.0);
  EXPECT_FALSE(replacement.node(0).failstop(0)->dead());
}

TEST(FailStopTier, ArmKeepsTheEarliestPendingDeadline) {
  // Overlapping schedules (a path event then a whole-node event, or vice
  // versa) must not postpone each other: last-write-wins would let the
  // later deadline clobber the earlier one.
  SimClock clock(100.0);
  auto a = std::make_shared<FailStopTier>(
      "a+failstop", std::make_shared<MemoryTier>("a"), clock);
  a->arm(clock.now() + 50.0);
  a->arm(clock.now() + 5.0);  // earlier wins
  auto b = std::make_shared<FailStopTier>(
      "b+failstop", std::make_shared<MemoryTier>("b"), clock);
  b->arm(clock.now() + 5.0);
  b->arm(clock.now() + 50.0);  // later must NOT postpone
  clock.sleep_for(10.0);
  EXPECT_TRUE(a->dead());
  EXPECT_TRUE(b->dead());
}

TEST(FailureInjector, KillByOtherEventDoesNotRetireFutureVtimeEvent) {
  // An iteration-driven kill of the node must not be mistaken for the
  // honouring of a second, still-future vtime event on the same node: the
  // vtime failure carries over to the replacement hardware.
  SimClock clock(100.0);
  const std::vector<FailureEvent> schedule = {
      node_failure_at(0, 2),
      [&] {
        FailureEvent event;
        event.kind = FailureEvent::Kind::kNode;
        event.node = 0;
        event.at_vtime = clock.now() + 30.0;
        return event;
      }(),
  };
  FailureInjector injector(schedule);
  ClusterSim cluster(clock, make_cluster_config(1));
  injector.arm(cluster, clock.now());
  injector.fire_due(cluster, 2);  // iteration event kills the node
  ASSERT_TRUE(cluster.node(0).failstop(0)->dead());

  // RecoveryDriver protocol: observe, replace, re-arm.
  injector.observe_latches(cluster, clock.now());
  cluster.replace_node(0);
  injector.arm(cluster, clock.now());
  EXPECT_FALSE(cluster.node(0).failstop(0)->dead());
  clock.sleep_until(schedule[1].at_vtime + 1.0);
  EXPECT_TRUE(cluster.node(0).failstop(0)->dead())
      << "the future vtime failure must survive onto the replacement";
}

TEST(FailureInjector, DeadlineElapsingDuringRebuildInjectsLate) {
  // The armed hardware is destroyed (elastic rebuild) before its deadline
  // latches; the deadline then elapses during the rebuild window. The
  // scheduled failure must still be delivered — on the replacement — not
  // silently retired.
  SimClock clock(100.0);
  FailureEvent event;
  event.kind = FailureEvent::Kind::kNode;
  event.node = 0;
  event.at_vtime = clock.now() + 10.0;  // 100 ms real
  FailureInjector injector({event});
  {
    ClusterSim doomed(clock, make_cluster_config(1));
    injector.arm(doomed, clock.now());
    // Pre-teardown observation: nothing latched yet.
    injector.observe_latches(doomed, clock.now());
    ASSERT_LT(clock.now(), event.at_vtime)
        << "construction outran the deadline; raise at_vtime";
  }
  clock.sleep_until(event.at_vtime + 1.0);  // deadline passes hardware-less
  ClusterSim replacement(clock, make_cluster_config(1));
  injector.arm(replacement, clock.now());
  EXPECT_TRUE(replacement.node(0).failstop(0)->dead())
      << "overdue failure must inject late, not evaporate";
}

// Tier whose reads block until the test opens a gate — makes "requests are
// still queued behind a dispatched one" deterministic.
class GateTier : public StorageTier {
 public:
  explicit GateTier(std::string name)
      : name_(std::move(name)), backend_(name_ + "/backend") {}

  std::promise<void> gate;
  std::promise<void> first_read_started;

  const std::string& name() const override { return name_; }
  void write(const std::string& key, std::span<const u8> data,
             u64 sim_bytes) override {
    backend_.write(key, data, sim_bytes);
  }
  void read(const std::string& key, std::span<u8> out,
            u64 sim_bytes) override {
    bool expected = false;
    if (first_.compare_exchange_strong(expected, true)) {
      first_read_started.set_value();
      gate.get_future().wait();
    }
    backend_.read(key, out, sim_bytes);
  }
  bool exists(const std::string& key) const override {
    return backend_.exists(key);
  }
  u64 object_size(const std::string& key) const override {
    return backend_.object_size(key);
  }
  void erase(const std::string& key) override { backend_.erase(key); }
  f64 read_bandwidth() const override { return 1e9; }
  f64 write_bandwidth() const override { return 1e9; }

 private:
  std::string name_;
  MemoryTier backend_;
  std::atomic<bool> first_{false};
};

TEST(IoSchedulerCancellation, QueuedRequestsDropWithIoCancelled) {
  SimClock clock(1000.0);
  VirtualTier vtier;
  auto gate = std::make_shared<GateTier>("gate");
  vtier.add_path(gate);
  IoScheduler io(clock, &vtier, {});

  const std::vector<u8> payload(64, 0xAB);
  for (int i = 0; i < 5; ++i) {
    vtier.write_to(0, "k" + std::to_string(i), payload, 0);
  }

  std::vector<u8> buf(64);
  std::vector<std::future<void>> reads;
  for (int i = 0; i < 5; ++i) {
    IoRequest req = IoRequest::tier_read("k" + std::to_string(i), 64,
                                         IoPriority::kDemandPrefetch, 0);
    req.dst = std::span<u8>(buf);
    reads.push_back(io.submit(std::move(req)));
  }
  // The first read is dispatched (blocked on the gate); the other four are
  // queued behind it on the same read channel.
  gate->first_read_started.get_future().wait();
  EXPECT_EQ(io.cancel_queued(), 4u);
  EXPECT_EQ(io.cancel_queued(), 0u) << "second sweep finds none new";
  gate->gate.set_value();

  EXPECT_NO_THROW(reads[0].get()) << "dispatched request runs to completion";
  for (int i = 1; i < 5; ++i) {
    EXPECT_THROW(reads[i].get(), IoCancelled) << i;
  }
  EXPECT_EQ(io.stats().priority[0].cancelled, 4u);
}

TEST(IoSchedulerCancellation, PriorityFilterLeavesOtherClassesQueued) {
  SimClock clock(1000.0);
  VirtualTier vtier;
  auto gate = std::make_shared<GateTier>("gate");
  vtier.add_path(gate);
  IoScheduler io(clock, &vtier, {});

  const std::vector<u8> payload(64, 1);
  for (int i = 0; i < 3; ++i) {
    vtier.write_to(0, "k" + std::to_string(i), payload, 0);
  }
  std::vector<u8> buf(64);
  std::vector<std::future<void>> reads;
  const IoPriority priorities[3] = {IoPriority::kDemandPrefetch,
                                    IoPriority::kDemandPrefetch,
                                    IoPriority::kCheckpoint};
  for (int i = 0; i < 3; ++i) {
    IoRequest req =
        IoRequest::tier_read("k" + std::to_string(i), 64, priorities[i], 0);
    req.dst = std::span<u8>(buf);
    reads.push_back(io.submit(std::move(req)));
  }
  gate->first_read_started.get_future().wait();
  // One demand read is in flight; one demand + one checkpoint are queued.
  EXPECT_EQ(io.cancel_queued(IoPriority::kDemandPrefetch), 1u);
  gate->gate.set_value();
  EXPECT_NO_THROW(reads[0].get());
  EXPECT_THROW(reads[1].get(), IoCancelled);
  EXPECT_NO_THROW(reads[2].get()) << "checkpoint-class read survives";
}

TEST(IoBatchFailStop, MultiFailureBatchPreservesFailStopType) {
  // A whole-node loss routinely fails every operation of a batch at once;
  // the aggregate must keep the FailStopError type or the cluster layer
  // would classify the node loss as a genuine bug and abort instead of
  // recovering.
  IoBatch batch;
  for (int i = 0; i < 2; ++i) {
    std::promise<void> p;
    p.set_exception(std::make_exception_ptr(FailStopError("dead")));
    batch.add(p.get_future());
  }
  EXPECT_THROW(batch.wait_all(), FailStopError);

  // Mixed storms too: any fail-stop outranks the aggregation.
  IoBatch mixed;
  std::promise<void> a, b;
  a.set_exception(std::make_exception_ptr(std::runtime_error("other")));
  b.set_exception(std::make_exception_ptr(FailStopError("dead")));
  mixed.add(a.get_future());
  mixed.add(b.get_future());
  EXPECT_THROW(mixed.wait_all(), FailStopError);
}

TEST(ClusterSim, FailStoppedNodeSurfacesAsNodeFailure) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_cluster_config(2));
  cluster.initialize();
  cluster.fail_node(1);
  try {
    cluster.run_iteration(0);
    FAIL() << "expected NodeFailure";
  } catch (const NodeFailure& failure) {
    ASSERT_EQ(failure.nodes().size(), 1u);
    EXPECT_EQ(failure.nodes()[0], 1u);
  }
}

TEST(ClusterSim, ReplaceNodeBringsFreshAliveTiers) {
  SimClock clock(2000.0);
  ClusterSim cluster(clock, make_cluster_config(2));
  cluster.initialize();
  cluster.fail_node(1);
  EXPECT_TRUE(cluster.node(1).failstop(0)->dead());
  cluster.replace_node(1);
  EXPECT_FALSE(cluster.node(1).failstop(0)->dead());
  cluster.node(1).initialize();
  const auto report = cluster.run_iteration(0);
  EXPECT_EQ(report.params_updated, tiny_model().parameters());
}

TEST(ClusterSim, FailNodeWithoutWrappersIsLoud) {
  SimClock clock(2000.0);
  ClusterConfig cfg = make_cluster_config(1);
  cfg.node.wrap_failstop = false;
  ClusterSim cluster(clock, cfg);
  EXPECT_THROW(cluster.fail_node(0), std::logic_error);
}

TEST(RecoveryDriver, SurvivesInjectedNodeLossAndAccountsForIt) {
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryOptions opts;
  opts.checkpoint_interval = 2;
  RecoveryDriver driver(clock, make_cluster_config(2), store, opts,
                        FailureInjector({node_failure_at(1, 3)}));
  driver.initialize();
  const auto reports = driver.run(5, 0);

  ASSERT_EQ(reports.size(), 5u);
  const auto& stats = driver.stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_GT(stats.recovery_seconds, 0.0);
  EXPECT_EQ(stats.lost_work_iterations, 1u) << "failed at 3, snapshot at 2";
  EXPECT_GT(stats.restored_subgroups, 0u);
  EXPECT_GE(stats.checkpoints_taken, 3u);

  // The recovery accounting lands on the first re-run iteration's report.
  u32 total_recoveries = 0;
  f64 total_recovery_seconds = 0;
  for (const auto& r : reports) {
    total_recoveries += r.recoveries;
    total_recovery_seconds += r.recovery_seconds;
    EXPECT_EQ(r.params_updated, tiny_model().parameters()) << r.iteration;
  }
  EXPECT_EQ(total_recoveries, 1u);
  EXPECT_DOUBLE_EQ(total_recovery_seconds, stats.recovery_seconds);
  EXPECT_EQ(reports[2].recoveries, 1u)
      << "rolled back to iteration 2; its re-run carries the charge";
}

TEST(RecoveryDriver, BackToBackFailuresInOneCheckpointWindowKeepAccounting) {
  // Two failures inside the same checkpoint window: the second rollback
  // discards a report that already carried the first recovery's counters,
  // which must be reclaimed — the report stream always sums to the stats.
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryOptions opts;
  opts.checkpoint_interval = 4;
  RecoveryDriver driver(
      clock, make_cluster_config(2), store, opts,
      FailureInjector({node_failure_at(1, 5), node_failure_at(0, 7)}));
  driver.initialize();
  const auto reports = driver.run(8, 0);

  ASSERT_EQ(reports.size(), 8u);
  EXPECT_EQ(driver.stats().recoveries, 2u);
  u32 total_recoveries = 0;
  f64 total_recovery_seconds = 0;
  u32 total_lost = 0;
  for (const auto& r : reports) {
    total_recoveries += r.recoveries;
    total_recovery_seconds += r.recovery_seconds;
    total_lost += r.lost_work_iterations;
  }
  EXPECT_EQ(total_recoveries, driver.stats().recoveries);
  EXPECT_DOUBLE_EQ(total_recovery_seconds, driver.stats().recovery_seconds);
  EXPECT_EQ(total_lost, driver.stats().lost_work_iterations);
  EXPECT_EQ(reports[4].recoveries, 2u)
      << "both recoveries rolled back to the iteration-4 snapshot";
}

TEST(RecoveryDriver, ClusterAccessorIsValidBeforeInitialize) {
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryDriver driver(clock, make_cluster_config(2), store);
  EXPECT_EQ(driver.cluster().node_count(), 2u);
}

TEST(RecoveryDriver, WarmupRollsRecoveryCountersOntoFirstKeptReport) {
  // Warmup excludes timings from averages; it must not erase discrete
  // recovery events — the returned stream still sums to RecoveryStats.
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryDriver driver(clock, make_cluster_config(2), store, {},
                        FailureInjector({node_failure_at(1, 0)}));
  driver.initialize();
  const auto reports = driver.run(4, /*warmup=*/1);
  ASSERT_EQ(reports.size(), 3u);
  u32 total = 0;
  for (const auto& r : reports) total += r.recoveries;
  EXPECT_EQ(total, driver.stats().recoveries);
  EXPECT_EQ(driver.stats().recoveries, 1u);
}

TEST(RecoveryDriver, SecondRunRebaselinesInsteadOfRewindingIntoTheFirst) {
  // Each run() numbers iterations from 0; a failure during a second run
  // must rewind to that run's own snapshot, not to the previous run's
  // checkpoint cursor (which would skip iterations entirely).
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryDriver driver(clock, make_cluster_config(2), store);
  driver.initialize();
  ASSERT_EQ(driver.run(2, 0).size(), 2u);

  driver.cluster().fail_node(0);
  const auto reports = driver.run(3, 0);
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_EQ(driver.stats().recoveries, 1u);
  EXPECT_EQ(reports[0].recoveries, 1u)
      << "the failure hit the second run's iteration 0 and was repaired "
         "from its own baseline snapshot";
}

TEST(RecoveryDriver, ElasticRestartWithoutElasticShardingIsRejected) {
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryOptions opts;
  opts.restart_nodes = 1;
  EXPECT_THROW(RecoveryDriver(clock, make_cluster_config(2, /*elastic=*/false),
                              store, opts),
               std::invalid_argument);
}

TEST(RecoveryDriver, EventTargetingNonexistentNodeIsRejected) {
  // A typo'd node index would otherwise be warn-skipped at fire time and
  // the experiment would silently inject nothing.
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  EXPECT_THROW(RecoveryDriver(clock, make_cluster_config(2), store, {},
                              FailureInjector({node_failure_at(5, 3)})),
               std::invalid_argument);
}

TEST(RecoveryDriver, GivesUpAfterMaxRecoveries) {
  SimClock clock(2000.0);
  auto store = std::make_shared<MemoryTier>("ckpt-store");
  RecoveryOptions opts;
  opts.max_recoveries = 1;
  RecoveryDriver driver(
      clock, make_cluster_config(2), store, opts,
      FailureInjector({node_failure_at(1, 1), node_failure_at(0, 2)}));
  driver.initialize();
  EXPECT_THROW(driver.run(4, 0), NodeFailure);
  EXPECT_EQ(driver.stats().recoveries, 1u);
  EXPECT_EQ(driver.stats().failures, 2u);
}

TEST(ResilienceConfig, ParsesFromTrainerJson) {
  const TrainerConfig cfg = trainer_config_from_json(std::string(R"({
    "model": "40B", "nodes": 2,
    "resilience": {
      "enabled": true,
      "checkpoint_interval": 2,
      "restart_nodes": 1,
      "elastic_sharding": true,
      "max_recoveries": 4,
      "failures": [{"kind": "node", "node": 1, "at_iteration": 3}]
    }
  })"));
  EXPECT_TRUE(cfg.resilience.enabled);
  EXPECT_EQ(cfg.resilience.checkpoint_interval, 2u);
  EXPECT_EQ(cfg.resilience.restart_nodes, 1u);
  EXPECT_TRUE(cfg.resilience.elastic_sharding);
  EXPECT_EQ(cfg.resilience.max_recoveries, 4u);
  ASSERT_EQ(cfg.resilience.failures.size(), 1u);
  EXPECT_EQ(cfg.resilience.failures[0].node, 1u);

  // Re-sharding restarts demand elastic sharding at parse time...
  EXPECT_THROW(trainer_config_from_json(std::string(
                   R"({"nodes": 2, "resilience": {"restart_nodes": 1}})")),
               std::invalid_argument);
  // ...but a disabled section is inert (the A/B-baseline toggle).
  const TrainerConfig off = trainer_config_from_json(std::string(
      R"({"nodes": 2, "resilience": {"enabled": false, "restart_nodes": 1}})"));
  EXPECT_FALSE(off.resilience.enabled);
}

}  // namespace
}  // namespace mlpo
