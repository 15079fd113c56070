// The paper's correctness claim (§3.2): subgroup updates are embarrassingly
// parallel, so processing order, placement, gradient-conversion timing, and
// locking must not change the training state. We verify bitwise equality of
// the end state at elem_scale 1 over several iterations across:
//   * all 16 combinations of the classic design-principle toggles;
//   * the FULL placement x ordering policy grid from the registry;
//   * every engine implementation behind the unified interface
//     (OffloadEngine, CpuOnlyEngine, TensorNvmeEngine).
#include <gtest/gtest.h>

#include "core/cpu_only_engine.hpp"
#include "core/engine.hpp"
#include "core/offload_engine.hpp"
#include "policy/policy_registry.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {
namespace {

constexpr u64 kSubgroupParams = 2048;
constexpr u32 kNumSubgroups = 6;
constexpr u32 kIterations = 3;

ShardLayout test_layout() {
  return make_shard_layout(kSubgroupParams * kNumSubgroups, 1, 0,
                           kSubgroupParams);
}

// Run a full mini-training with the given options and return the end-state
// digest. The engine kind in `opts.engine` selects the implementation;
// `pool`, when set, runs the kernels and the deposits' host parts.
u64 run_opts(EngineOptions opts, u32 accum_steps = 1,
             const ShardLayout& layout = test_layout(),
             ThreadPool* pool = nullptr) {
  SimClock clock(50000.0);
  VirtualTier vtier;
  ThrottleSpec fast{8e6, 6e6};
  fast.chunk_bytes = 32 * KiB;
  vtier.add_path(std::make_shared<ThrottledTier>(
      "nvme", std::make_shared<MemoryTier>("nb"), clock, fast));
  ThrottleSpec slow{4e6, 4e6};
  slow.chunk_bytes = 32 * KiB;
  vtier.add_path(std::make_shared<ThrottledTier>(
      "pfs", std::make_shared<MemoryTier>("pb"), clock, slow, true));

  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = 128;
  io_cfg.tier_exclusive_locking = opts.tier_exclusive_locking;
  IoScheduler io(clock, &vtier, io_cfg);
  GradSource grads;

  opts.host_cache_subgroups = 2;
  opts.cpu_update_rate = 1e9;
  opts.convert.fp32_bytes_per_sec = 1e12;
  opts.elem_scale = 1;

  EngineContext ctx;
  ctx.clock = &clock;
  ctx.vtier = &vtier;
  ctx.io = &io;
  ctx.cpu_pool = pool;
  ctx.grads = &grads;
  const auto engine = make_engine(ctx, opts, layout);
  engine->initialize();

  for (u64 iter = 0; iter < kIterations; ++iter) {
    for (u32 m = 0; m < accum_steps; ++m) {
      const u64 sample = iter * accum_steps + m;
      for (u32 id = 0; id < engine->num_subgroups(); ++id) {
        engine->deposit_gradients_async(sample, id, m == 0,
                                        m + 1 == accum_steps);
      }
      engine->wait_gradient_io();
    }
    engine->run_update(iter);
  }
  return engine->state_checksum();
}

u64 run_config(bool multipath, bool cache, bool delayed, bool locking,
               u32 accum_steps = 1, ThreadPool* pool = nullptr) {
  EngineOptions opts;
  opts.multipath = multipath;
  opts.update_order_policy =
      cache ? "alternating_cache_friendly" : "ascending";
  opts.delayed_grad_conversion = delayed;
  opts.tier_exclusive_locking = locking;
  return run_opts(opts, accum_steps, test_layout(), pool);
}

u64 baseline_digest() {
  static const u64 digest = run_config(false, false, false, false);
  return digest;
}

// Each combination runs without a CPU pool and with a 3-thread one, which
// runs the deposits' host parts concurrently across subgroups: the bits
// must not notice.
class AllFlagCombos
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AllFlagCombos, EndStateBitwiseEqualToBaseline) {
  const auto [bits, pooled] = GetParam();
  ThreadPool pool(3);
  const u64 digest = run_config(bits & 1, bits & 2, bits & 4, bits & 8, 1,
                                pooled ? &pool : nullptr);
  EXPECT_EQ(digest, baseline_digest())
      << "flags: multipath=" << !!(bits & 1) << " cache=" << !!(bits & 2)
      << " delayed=" << !!(bits & 4) << " locking=" << !!(bits & 8)
      << " pooled=" << pooled;
}

INSTANTIATE_TEST_SUITE_P(SixteenCombos, AllFlagCombos,
                         ::testing::Combine(::testing::Range(0, 16),
                                            ::testing::Bool()));

// The tentpole guarantee: every placement policy x every ordering policy
// from the registry trains to the same bits as the baseline.
class PolicyGrid
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PolicyGrid, EndStateBitwiseEqualAcrossPolicyGrid) {
  const auto& [placement, order] = GetParam();
  EngineOptions opts;  // full MLP-Offload otherwise
  opts.placement_policy = placement;
  opts.update_order_policy = order;
  EXPECT_EQ(run_opts(opts), baseline_digest())
      << "placement=" << placement << " order=" << order;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PolicyGrid,
    ::testing::Combine(::testing::ValuesIn(placement_policy_names()),
                       ::testing::ValuesIn(update_order_policy_names())),
    [](const auto& info) {
      return std::get<0>(info.param) + "_x_" + std::get<1>(info.param);
    });

TEST(Equivalence, GradientAccumulationAlsoOrderIndependent) {
  const u64 base = run_config(false, false, false, false, /*accum=*/2);
  const u64 ours = run_config(true, true, true, true, 2);
  EXPECT_EQ(ours, base);
}

TEST(Equivalence, PooledGradientAccumulationMatchesPinnedDigest) {
  ThreadPool pool(3);
  EXPECT_EQ(run_config(false, false, false, false, 2, &pool),
            0x1768F227F29FA56Full);
  EXPECT_EQ(run_config(true, true, true, true, 2, &pool),
            0x1768F227F29FA56Full);
}

TEST(Equivalence, LargeSubgroupsAccumulateIdenticallyOnEveryEngine) {
  // Subgroups of 64 K elements reach parallel_for's fan-out threshold, so
  // with a pool the accumulation and upscale of a deposit's host part
  // (itself a pool task) run inline while the update thread's kernels fan
  // out; the short remainder subgroup makes the per-thread scratch shrink
  // and grow again. Three accumulation micro-steps, every engine kind,
  // with and without a pool: one digest, recorded from the serial deposit
  // path that ran each deposit's host part on the D2H link thread.
  constexpr u64 kLarge = 64 * 1024;
  const ShardLayout layout =
      make_shard_layout(3 * kLarge + 4099, 1, 0, kLarge);
  ThreadPool pool(3);
  for (const char* preset :
       {"mlp_offload", "deepspeed_zero3", "tensor_nvme", "cpu_only"}) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      EXPECT_EQ(run_opts(EngineOptions::preset(preset), 3, layout, p),
                0x1D72DBD45223FF95ull)
          << preset << (p != nullptr ? " with" : " without") << " a pool";
    }
  }
}

TEST(Equivalence, OffloadedMatchesHostResidentEngine) {
  // CpuOnlyEngine never touches storage; its state after the same schedule
  // must equal the fully offloaded engines'.
  SimClock clock(50000.0);
  GradSource grads;
  EngineContext ctx;
  ctx.clock = &clock;
  ctx.grads = &grads;
  EngineOptions opts;
  opts.cpu_update_rate = 1e9;
  opts.convert.fp32_bytes_per_sec = 1e12;
  opts.elem_scale = 1;
  CpuOnlyEngine engine(ctx, opts, test_layout());
  engine.initialize();
  for (u64 iter = 0; iter < kIterations; ++iter) {
    engine.deposit_gradients(iter, true);
    engine.run_update(iter);
  }
  EXPECT_EQ(engine.state_checksum(), baseline_digest());
}

TEST(Equivalence, TensorNvmeFacadeMatchesOffloadEngines) {
  // The TensorNVMe integration engine round-trips its state through
  // DiskOffloaders every iteration; the bits must survive unchanged.
  EngineOptions opts = EngineOptions::preset("tensor_nvme");
  EXPECT_EQ(run_opts(opts), baseline_digest());
}

TEST(Equivalence, CpuOnlyEngineKindMatchesThroughUnifiedFactory) {
  EngineOptions opts = EngineOptions::preset("cpu_only");
  EXPECT_EQ(run_opts(opts), baseline_digest());
}

TEST(Equivalence, DifferentGradientsProduceDifferentStates) {
  // Sanity: the digest is actually sensitive to training history (one vs
  // two accumulation micro-steps diverge).
  EXPECT_NE(run_config(true, true, true, true, 1),
            run_config(true, true, true, true, 2));
}

TEST(Equivalence, GoldenDigestsPinned) {
  // Every other test here compares engines with each other, so a kernel
  // that is wrong but consistent (gradient generator, FP16 codec, Adam)
  // would pass them all. These digests were recorded from the scalar
  // kernels; the accumulation run also covers GradAccumulator::accumulate.
  EXPECT_EQ(run_opts(EngineOptions::preset("mlp_offload")),
            0xF05A753E20151F36ull);
  EXPECT_EQ(run_opts(EngineOptions::preset("mlp_offload"), /*accum=*/2),
            0x1768F227F29FA56Full);
}

// --- Pipeline parity across both offloading engines -------------------------
//
// Both offloading engines run the one update pipeline (the paper's Alg. 1
// loop); whatever placement and ordering steer it, the training state must
// not notice. Sweep: both engines x several placement/ordering combos, each
// compared against the shared baseline digest, plus an uneven elastic
// split whose per-rank digests must sum to the single-rank digest.

class PipelineParity
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::string>> {};

TEST_P(PipelineParity, BitIdenticalToBaseline) {
  const auto& [engine_kind, placement, order] = GetParam();
  EngineOptions opts;
  opts.engine = engine_kind;
  opts.placement_policy = placement;
  opts.update_order_policy = order;
  EXPECT_EQ(run_opts(opts), baseline_digest())
      << "engine=" << engine_kind << " placement=" << placement
      << " order=" << order;
}

INSTANTIATE_TEST_SUITE_P(
    EnginesTimesPolicies, PipelineParity,
    ::testing::Combine(
        ::testing::Values("offload", "tensor_nvme"),
        ::testing::Values("adaptive_ema", "eq1_static", "round_robin"),
        // ascending exercises the eager-flush (no host cache) path; the
        // other two take the lazy flush-through-cache path.
        ::testing::Values("ascending", "alternating_cache_friendly",
                          "host_resident_first")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_x_" +
             std::get<2>(info.param);
    });

TEST(PipelineParityElastic, UnevenShardsSumToSingleRankDigest) {
  // Elastic layouts change subgroup->rank ownership but not subgroup
  // identity; the commutative whole-model digest (summed over ranks) must
  // match the single-rank run. World of 2 over 5 global subgroups: rank 0
  // takes 3, rank 1 takes 2 — an uneven split on purpose.
  constexpr u32 kWorld = 2;
  const u64 total_params = kSubgroupParams * 5;
  for (const std::string engine_kind : {"offload", "tensor_nvme"}) {
    EngineOptions opts;
    opts.engine = engine_kind;
    u64 sharded_sum = 0;
    for (u32 rank = 0; rank < kWorld; ++rank) {
      sharded_sum += run_opts(
          opts, 1,
          make_elastic_shard_layout(total_params, kWorld,
                                    static_cast<int>(rank), kSubgroupParams));
    }
    const u64 single = run_opts(
        opts, 1,
        make_elastic_shard_layout(total_params, 1, 0, kSubgroupParams));
    EXPECT_EQ(sharded_sum, single) << "engine=" << engine_kind;
  }
}

}  // namespace
}  // namespace mlpo
