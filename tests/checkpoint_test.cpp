// Checkpoint pre-staging: persistent-path subgroups skip the flush; the
// checkpoint is a faithful snapshot.
#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/offload_engine.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"

namespace mlpo {
namespace {

constexpr u64 kSubgroupParams = 1024;
constexpr u32 kNumSubgroups = 6;

struct Rig {
  SimClock clock{50000.0};
  VirtualTier vtier;
  GradSource grads;
  MemoryTier ckpt_store{"ckpt-store"};
  // One scheduler per engine so its locking config matches the engine's
  // flags; kept alive here because they must outlive the engines.
  std::vector<std::unique_ptr<IoScheduler>> schedulers;

  Rig() {
    ThrottleSpec nvme{8e6, 6e6};
    vtier.add_path(std::make_shared<ThrottledTier>(
        "nvme", std::make_shared<MemoryTier>("nb"), clock, nvme,
        /*persistent=*/false));
    ThrottleSpec pfs{4e6, 4e6};
    vtier.add_path(std::make_shared<ThrottledTier>(
        "pfs", std::make_shared<MemoryTier>("pb"), clock, pfs,
        /*persistent=*/true));
  }

  std::unique_ptr<OffloadEngine> make_engine(bool multipath,
                                             u32 num_subgroups = kNumSubgroups) {
    EngineOptions opts = multipath ? EngineOptions::mlp_offload()
                                   : EngineOptions::deepspeed_zero3();
    opts.cpu_update_rate = 1e9;
    opts.convert.fp32_bytes_per_sec = 1e12;
    opts.host_cache_subgroups = 2;
    opts.elem_scale = 1;

    IoScheduler::Config cfg;
    cfg.tier_exclusive_locking = opts.tier_exclusive_locking;
    schedulers.push_back(
        std::make_unique<IoScheduler>(clock, &vtier, cfg));

    EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = schedulers.back().get();
    ctx.grads = &grads;
    auto engine = std::make_unique<OffloadEngine>(
        ctx, opts, make_shard_layout(kSubgroupParams * num_subgroups, 1, 0,
                                     kSubgroupParams));
    engine->initialize();
    return engine;
  }
};

TEST(Checkpoint, PrestagedFractionMatchesPersistentPlacement) {
  Rig rig;
  auto engine = rig.make_engine(/*multipath=*/true);
  const auto report = checkpoint_prestage(*engine, rig.ckpt_store);

  const u64 expected_total =
      kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam;
  EXPECT_EQ(report.total_sim_bytes, expected_total);
  EXPECT_EQ(report.prestaged_sim_bytes + report.flushed_sim_bytes,
            expected_total);
  // Multipath placed a share on the persistent PFS: those bytes are free.
  EXPECT_GT(report.prestaged_sim_bytes, 0u);
  EXPECT_GT(report.prestaged_fraction(), 0.2);
  EXPECT_LT(report.prestaged_fraction(), 0.8);
}

TEST(Checkpoint, BaselineHasNothingPrestaged) {
  Rig rig;
  auto engine = rig.make_engine(/*multipath=*/false);
  const auto report = checkpoint_prestage(*engine, rig.ckpt_store);
  EXPECT_EQ(report.prestaged_sim_bytes, 0u)
      << "NVMe-only placement is not durable";
  EXPECT_EQ(report.flushed_sim_bytes, report.total_sim_bytes);
}

TEST(Checkpoint, FlushedObjectsAreFaithfulSnapshots) {
  Rig rig;
  auto engine = rig.make_engine(true);
  // Advance state so the snapshot is non-trivial.
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  engine->run_update(0);

  const auto report = checkpoint_prestage(*engine, rig.ckpt_store);
  EXPECT_GT(report.flushed_sim_bytes, 0u);

  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    const std::string key = "ckpt/0/" + std::to_string(id);
    if (!rig.ckpt_store.exists(key)) continue;  // pre-staged elsewhere
    const Subgroup live = engine->snapshot_subgroup(id);
    Subgroup from_ckpt(id, live.sim_params(), live.elem_scale());
    std::vector<u8> buf(from_ckpt.serialized_bytes());
    rig.ckpt_store.read(key, buf);
    from_ckpt.deserialize(buf);
    EXPECT_EQ(from_ckpt.checksum(), live.checksum()) << id;
  }
}

TEST(Checkpoint, RestoreRoundtripAfterFurtherTraining) {
  Rig rig;
  auto engine = rig.make_engine(true);
  const auto train_iter = [&](u64 iter) {
    for (u32 id = 0; id < engine->num_subgroups(); ++id) {
      engine->deposit_gradients_async(iter, id, true, true);
    }
    engine->wait_gradient_io();
    engine->run_update(iter);
  };

  train_iter(0);
  train_iter(1);
  const u64 at_checkpoint = engine->state_checksum();
  checkpoint_prestage(*engine, rig.ckpt_store);

  // Training continues and diverges...
  train_iter(2);
  train_iter(3);
  ASSERT_NE(engine->state_checksum(), at_checkpoint);

  // ...then a failure: restore must bring back the checkpointed state
  // exactly, including pre-staged subgroups that training overwrote on the
  // persistent path since.
  checkpoint_restore(*engine, rig.ckpt_store);
  EXPECT_EQ(engine->state_checksum(), at_checkpoint);

  // Training can resume from the restored state.
  train_iter(2);
  EXPECT_NE(engine->state_checksum(), at_checkpoint);
}

TEST(Checkpoint, RestoreChargesVirtualTimeScalingWithCheckpointSize) {
  // Regression: restore used to submit its external reads with
  // sim_bytes=0, so pulling state back from the checkpoint store was
  // charged zero virtual I/O time while checkpoint_prestage charged full
  // bytes for the same objects. Each restored subgroup must now pay at
  // least its simulated footprint at the store's read bandwidth.
  // Slow enough that the simulated transfer charge dwarfs the wall-clock-
  // derived scheduling overheads at this time scale (notably the one-off
  // spawn of the store's lazily-created external channel thread).
  constexpr f64 kStoreReadBw = 2e3;
  const auto timed_restore = [&](u32 num_subgroups) {
    Rig rig;
    auto engine = rig.make_engine(/*multipath=*/true, num_subgroups);
    // A throttled, PFS-like store so virtual time is actually charged.
    ThrottledTier store("ckpt-throttled", std::make_shared<MemoryTier>("cb"),
                        rig.clock, ThrottleSpec{kStoreReadBw, 2e6},
                        /*persistent=*/true);
    // (writes stay fast: prestage cost is not under test here)
    checkpoint_prestage(*engine, store);
    const f64 before = rig.clock.now();
    EXPECT_EQ(checkpoint_restore(*engine, store), num_subgroups);
    return rig.clock.now() - before;
  };

  const f64 full_seconds = timed_restore(kNumSubgroups);
  const u64 total_sim_bytes =
      kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam;
  const f64 min_expected = static_cast<f64>(total_sim_bytes) / kStoreReadBw;
  EXPECT_GE(full_seconds, min_expected)
      << "restore must be billed the full simulated transfer";

  // And the charge scales with checkpoint size: a third of the subgroups
  // restores in well under half the time (store reads and write-backs both
  // shrink proportionally; only per-request scheduling overhead — which
  // pushes times up, never down — is size-independent).
  const f64 third_seconds = timed_restore(kNumSubgroups / 3);
  EXPECT_GT(full_seconds, 2.0 * third_seconds);
}

TEST(Checkpoint, RestoreFromEmptyStoreFails) {
  Rig rig;
  auto engine = rig.make_engine(true);
  MemoryTier empty("empty");
  // Freshly initialised subgroups partly live on the persistent PFS (those
  // restore in place); the NVMe-resident ones have no checkpoint copy.
  EXPECT_THROW(checkpoint_restore(*engine, empty), std::runtime_error);
}

TEST(Checkpoint, HostCachedSubgroupsAreFlushedNotSkipped) {
  Rig rig;
  auto engine = rig.make_engine(true);
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  engine->run_update(0);
  ASSERT_FALSE(engine->host_resident().empty());

  const auto report = checkpoint_prestage(*engine, rig.ckpt_store);
  // Host-resident subgroups are not on any persistent path; they must be
  // in the flushed portion.
  const u64 host_bytes = engine->distribution().host_sim_bytes;
  EXPECT_GE(report.flushed_sim_bytes, host_bytes);
}

}  // namespace
}  // namespace mlpo
