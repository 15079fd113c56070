// OffloadEngine: initialization/distribution, the update pipeline, caching
// behaviour, the NaN tripwire on evicted host state, read-after-write
// ordering of re-fetches, numerical correctness against a hand-rolled
// reference, and option validation — plus the Engine base's contract
// (context and scalar option checks, charged compute, local trace ids),
// pinned once for every engine kind through make_engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/offload_engine.hpp"
#include "policy/policy_registry.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"
#include "train/adam.hpp"
#include "util/fp16.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {
namespace {

constexpr u64 kSubgroupParams = 4096;
constexpr u32 kNumSubgroups = 8;

// Shared scaffolding: a two-path virtual tier over fast emulated devices.
// The scheduler is built after the paths exist (it spawns one dispatch
// channel per path direction at construction).
struct EngineRig {
  SimClock clock;
  VirtualTier vtier;
  GradSource grads;
  std::unique_ptr<IoScheduler> io;
  std::unique_ptr<IoScheduler> io_unlocked;

  explicit EngineRig(f64 time_scale = 20000.0) : clock(time_scale) {
    ThrottleSpec nvme_spec{/*read_bw=*/4e6, /*write_bw=*/3e6};
    nvme_spec.chunk_bytes = 16 * KiB;
    vtier.add_path(std::make_shared<ThrottledTier>(
        "nvme", std::make_shared<MemoryTier>("nvme-back"), clock, nvme_spec));
    ThrottleSpec pfs_spec{2e6, 2e6};
    pfs_spec.chunk_bytes = 16 * KiB;
    vtier.add_path(std::make_shared<ThrottledTier>(
        "pfs", std::make_shared<MemoryTier>("pfs-back"), clock, pfs_spec,
        /*persistent=*/true));
    IoScheduler::Config cfg;
    cfg.queue_depth = 128;
    io = std::make_unique<IoScheduler>(clock, &vtier, cfg);
    cfg.tier_exclusive_locking = false;
    io_unlocked = std::make_unique<IoScheduler>(clock, &vtier, cfg);
  }

  EngineContext context(int rank = 0) {
    EngineContext ctx;
    ctx.clock = &clock;
    ctx.vtier = &vtier;
    ctx.io = io.get();
    ctx.cpu_pool = nullptr;
    ctx.grads = &grads;
    ctx.rank = rank;
    return ctx;
  }

  /// Context whose scheduler locking matches the engine's flags (the
  /// deepspeed_zero3 baseline runs without tier-exclusive locking).
  EngineContext context_for(const EngineOptions& opts, int rank = 0) {
    EngineContext ctx = context(rank);
    if (!opts.tier_exclusive_locking) ctx.io = io_unlocked.get();
    return ctx;
  }

  static EngineOptions fast_options(EngineOptions opts) {
    opts.cpu_update_rate = 1e9;  // keep compute sleeps tiny
    opts.convert.fp32_bytes_per_sec = 1e12;
    opts.host_cache_subgroups = 3;
    return opts;
  }

  static ShardLayout layout() {
    return make_shard_layout(kSubgroupParams * kNumSubgroups, 1, 0,
                             kSubgroupParams);
  }

  void run_one_iteration(OffloadEngine& engine, u64 iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    engine.run_update(iter);
  }
};

// The Engine base's contract, once per engine kind.
class EveryEngineKind : public ::testing::TestWithParam<std::string> {
 protected:
  EngineOptions options() const {
    EngineOptions opts = EngineRig::fast_options(EngineOptions::mlp_offload());
    opts.engine = GetParam();
    return opts;
  }
};

TEST_P(EveryEngineKind, RequiresContextPieces) {
  EngineRig rig;
  EngineContext no_clock = rig.context();
  no_clock.clock = nullptr;
  EXPECT_THROW(make_engine(no_clock, options(), EngineRig::layout()),
               std::invalid_argument);
  EngineContext no_grads = rig.context();
  no_grads.grads = nullptr;
  EXPECT_THROW(make_engine(no_grads, options(), EngineRig::layout()),
               std::invalid_argument);
  if (GetParam() != "cpu_only") {  // the two offloading engines need storage
    EngineContext no_vtier = rig.context();
    no_vtier.vtier = nullptr;
    EXPECT_THROW(make_engine(no_vtier, options(), EngineRig::layout()),
                 std::invalid_argument);
  }
}

TEST_P(EveryEngineKind, RejectsBadScalarOptions) {
  EngineRig rig;
  const auto expect_rejected = [&](const EngineOptions& opts) {
    EXPECT_THROW(opts.validate(), std::invalid_argument);
    try {
      make_engine(rig.context(), opts, EngineRig::layout());
      ADD_FAILURE() << "make_engine accepted a bad scalar option";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("EngineOptions:", 0), 0u)
          << e.what();
    }
  };
  EngineOptions opts = options();
  opts.elem_scale = 0;
  expect_rejected(opts);
  opts = options();
  opts.cpu_update_rate = 0;
  expect_rejected(opts);
  opts.cpu_update_rate = -5;
  expect_rejected(opts);
}

TEST_P(EveryEngineKind, ReportsChargedComputeBudgetWithLocalIds) {
  // At 1e6 virtual seconds per real second, any real kernel time dwarfs
  // the cpu_update_rate budget: an engine that reported max(budget, real)
  // would count host wall-clock noise as compute. Rank 1 of an elastic
  // split owns global ids that differ from its local ones, so the traces
  // show which of the two an engine labels them with.
  EngineRig rig(1e6);
  const ShardLayout layout = make_elastic_shard_layout(
      kSubgroupParams * kNumSubgroups, 2, 1, kSubgroupParams);
  ASSERT_NE(layout.global_id(0), 0u);
  const EngineOptions opts = options();
  const auto engine = make_engine(rig.context(/*rank=*/1), opts, layout);
  engine->initialize();
  for (u32 id = 0; id < engine->num_subgroups(); ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  const IterationReport report = engine->run_update(0);

  f64 budget = 0;
  for (const u64 params : layout.subgroup_sizes) {
    budget += static_cast<f64>(params) / opts.cpu_update_rate;
  }
  EXPECT_NEAR(report.update_compute_seconds, budget, 1e-9 * budget);
  std::vector<u32> ids;
  for (const SubgroupTrace& t : report.traces) ids.push_back(t.subgroup_id);
  std::sort(ids.begin(), ids.end());
  std::vector<u32> local(layout.num_subgroups());
  std::iota(local.begin(), local.end(), 0u);
  EXPECT_EQ(ids, local);
}

TEST_P(EveryEngineKind, ChargesOneD2HPerDepositAndOneH2DPerUpdate) {
  // Every deposit charges the D2H link once; every updated subgroup of a
  // tiered engine is pushed over the H2D link once, and cpu_only pushes
  // nothing. The scheduler counts per priority class: pushes share
  // kDemandPrefetch with the tiered engines' state reads, one per subgroup
  // in a first update (the host cache starts empty).
  EngineRig rig;
  const ShardLayout layout = EngineRig::layout();
  const auto engine = make_engine(rig.context(), options(), layout);
  engine->initialize();
  const u32 n = engine->num_subgroups();
  const auto stats = [&](IoPriority p) {
    return rig.io->stats().priority[static_cast<std::size_t>(p)];
  };

  const auto deposits_before = stats(IoPriority::kGradDeposit);
  for (u32 id = 0; id < n; ++id) {
    engine->deposit_gradients_async(0, id, true, true);
  }
  engine->wait_gradient_io();
  const auto deposits = stats(IoPriority::kGradDeposit);
  EXPECT_EQ(deposits.submitted - deposits_before.submitted, n);
  EXPECT_EQ(deposits.completed - deposits_before.completed, n);
  u64 link_bytes = 0, state_bytes = 0;
  for (const u64 params : layout.subgroup_sizes) {
    ASSERT_EQ(params, kSubgroupParams);
    link_bytes += params * kFp16Bytes;
    state_bytes += params * kOptimStateBytesPerParam;
  }
  EXPECT_EQ(deposits.sim_bytes - deposits_before.sim_bytes, link_bytes);

  const auto demand_before = stats(IoPriority::kDemandPrefetch);
  engine->run_update(0);
  const auto demand = stats(IoPriority::kDemandPrefetch);
  const bool tiered = GetParam() != "cpu_only";
  EXPECT_EQ(demand.submitted - demand_before.submitted, tiered ? 2 * n : 0u);
  EXPECT_EQ(demand.sim_bytes - demand_before.sim_bytes,
            tiered ? state_bytes + link_bytes : 0u);
  EXPECT_EQ(stats(IoPriority::kGradDeposit).submitted, deposits.submitted);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EveryEngineKind,
                         ::testing::ValuesIn(engine_kind_names()),
                         [](const auto& info) { return info.param; });

TEST(OffloadEngine, RejectsUnsafeCacheDepth) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.prefetch_ahead = 2;
  opts.host_cache_subgroups = 2;  // < prefetch_ahead + 1
  EXPECT_THROW(OffloadEngine(rig.context(), opts, EngineRig::layout()),
               std::invalid_argument);
}

TEST(OffloadEngine, InitializeDistributesPerEq1) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  const auto dist = engine.distribution();
  EXPECT_EQ(dist.host_sim_bytes, 0u);  // cold start: everything offloaded
  const u64 total = dist.path_sim_bytes[0] + dist.path_sim_bytes[1];
  EXPECT_EQ(total, kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam);
  // 3:2 bandwidth ratio (min(4,3)=3 vs min(2,2)=2): path 0 gets more.
  EXPECT_GT(dist.path_sim_bytes[0], dist.path_sim_bytes[1]);
}

TEST(OffloadEngine, DoubleInitializeThrows) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  EXPECT_THROW(engine.initialize(), std::logic_error);
}

TEST(OffloadEngine, UpdateBeforeInitializeThrows) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  EXPECT_THROW(engine.run_update(0), std::logic_error);
}

TEST(OffloadEngine, SinglePathWhenMultipathDisabled) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::deepspeed_zero3());
  OffloadEngine engine(rig.context_for(opts), opts, EngineRig::layout());
  engine.initialize();
  const auto dist = engine.distribution();
  EXPECT_EQ(dist.path_sim_bytes[1], 0u) << "baseline must not touch the PFS";
  EXPECT_GT(dist.path_sim_bytes[0], 0u);
}

TEST(OffloadEngine, UpdateProcessesEverySubgroupAndAdvancesStep) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    EXPECT_EQ(engine.snapshot_subgroup(id).step(), 1u) << id;
  }
  rig.run_one_iteration(engine, 1);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    EXPECT_EQ(engine.snapshot_subgroup(id).step(), 2u) << id;
  }
}

TEST(OffloadEngine, ReportAccountsAllSubgroups) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(0, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(0);
  EXPECT_EQ(report.subgroups_processed, kNumSubgroups);
  EXPECT_EQ(report.params_updated, kSubgroupParams * kNumSubgroups);
  EXPECT_EQ(report.traces.size(), kNumSubgroups);
  EXPECT_GT(report.update_seconds, 0.0);
  EXPECT_GT(report.sim_bytes_fetched, 0u);
  EXPECT_GT(report.update_compute_seconds, 0.0);
  // Iteration 0 is cold: every subgroup was fetched.
  EXPECT_EQ(report.host_cache_hits, 0u);
}

TEST(OffloadEngine, CacheHitsAppearFromSecondIteration) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.host_cache_subgroups = 3;
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(1, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(1);
  EXPECT_EQ(report.host_cache_hits, 3u)
      << "descending iteration reuses the cached tail";
  // Cached subgroups transferred nothing.
  u32 zero_read_traces = 0;
  for (const auto& t : report.traces) {
    if (t.host_cache_hit) {
      EXPECT_EQ(t.sim_bytes_read, 0u);
      ++zero_read_traces;
    }
  }
  EXPECT_EQ(zero_read_traces, 3u);
}

TEST(OffloadEngine, BaselineNeverHitsCache) {
  EngineRig rig;
  const auto opts = EngineRig::fast_options(EngineOptions::deepspeed_zero3());
  OffloadEngine engine(rig.context_for(opts), opts, EngineRig::layout());
  engine.initialize();
  for (u64 iter = 0; iter < 3; ++iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    const auto report = engine.run_update(iter);
    EXPECT_EQ(report.host_cache_hits, 0u) << iter;
    // Thrashing baseline: every subgroup both fetched and flushed, with
    // FP32 gradients inflating fetches to 16 B/param.
    EXPECT_EQ(report.sim_bytes_fetched,
              kSubgroupParams * kNumSubgroups *
                  kOptimStateWithGradBytesPerParam);
    EXPECT_EQ(report.sim_bytes_flushed,
              kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam);
  }
}

TEST(OffloadEngine, DelayedConversionShrinksFetches) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  // Isolate the gradient effect: no cache reuse, plain ascending schedule.
  opts.host_cache_subgroups = 0;
  opts.update_order_policy = "ascending";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(0, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(0);
  EXPECT_EQ(report.sim_bytes_fetched,
            kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam)
      << "12 B/param without FP32 gradients";
}

TEST(OffloadEngine, StateMatchesManualAdamReference) {
  // Full-fidelity run (elem_scale 1): engine state after two iterations
  // must equal a direct Adam simulation on the same gradients.
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.elem_scale = 1;
  const auto layout = EngineRig::layout();
  OffloadEngine engine(rig.context(), opts, layout);
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  rig.run_one_iteration(engine, 1);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    // Rebuild the reference: same init, same gradients, two Adam steps.
    const Subgroup got = engine.snapshot_subgroup(id);
    Subgroup ref(id, layout.subgroup_sizes[id], 1);
    // Initial params must match the engine's deterministic init; recover
    // them from a fresh engine instead of duplicating the hash here.
    EngineRig rig2;
    OffloadEngine fresh(rig2.context(), opts, layout);
    fresh.initialize();
    const Subgroup init = fresh.snapshot_subgroup(id);
    std::copy(init.params().begin(), init.params().end(),
              ref.params().begin());

    std::vector<u16> ghalf(ref.real_elems());
    std::vector<f32> g(ref.real_elems());
    for (u32 step = 1; step <= 2; ++step) {
      rig.grads.generate_fp16(0, id, step - 1, ghalf);
      fp16_to_fp32(ghalf, g);
      adam_update_reference(opts.adam, ref.params(), ref.momentum(),
                            ref.variance(), g, step);
    }
    for (std::size_t i = 0; i < ref.real_elems(); ++i) {
      EXPECT_EQ(got.params()[i], ref.params()[i]) << "sg " << id << " i " << i;
      EXPECT_EQ(got.momentum()[i], ref.momentum()[i]) << id << " " << i;
      EXPECT_EQ(got.variance()[i], ref.variance()[i]) << id << " " << i;
    }
  }
}

TEST(OffloadEngine, GradientAccumulationSumsMicroSteps) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.elem_scale = 1;
  const auto layout = EngineRig::layout();
  OffloadEngine engine(rig.context(), opts, layout);
  engine.initialize();
  // Two micro-steps then one update.
  for (u32 m = 0; m < 2; ++m) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(m, id, m == 0, m == 1);
    }
    engine.wait_gradient_io();
  }
  engine.run_update(0);

  const u32 id = 0;
  const Subgroup got = engine.snapshot_subgroup(id);

  EngineRig rig2;
  OffloadEngine fresh(rig2.context(), opts, layout);
  fresh.initialize();
  Subgroup ref = fresh.snapshot_subgroup(id);
  std::vector<u16> g0(ref.real_elems()), g1(ref.real_elems());
  rig.grads.generate_fp16(0, id, 0, g0);
  rig.grads.generate_fp16(0, id, 1, g1);
  // FP16 accumulation: decode, add, re-encode, then upscale.
  std::vector<f32> g(ref.real_elems());
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = Fp16::decode(Fp16::encode(Fp16::decode(g0[i]) + Fp16::decode(g1[i])));
  }
  adam_update_reference(opts.adam, ref.params(), ref.momentum(),
                        ref.variance(), g, 1);
  for (std::size_t i = 0; i < ref.real_elems(); ++i) {
    EXPECT_EQ(got.params()[i], ref.params()[i]) << i;
  }
}

TEST(OffloadEngine, NoNansEscapeThePipeline) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  for (u64 iter = 0; iter < 4; ++iter) rig.run_one_iteration(engine, iter);
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    const Subgroup sg = engine.snapshot_subgroup(id);
    for (const f32 x : sg.params()) EXPECT_TRUE(std::isfinite(x));
    for (const f32 x : sg.momentum()) EXPECT_TRUE(std::isfinite(x));
    for (const f32 x : sg.variance()) EXPECT_TRUE(std::isfinite(x));
  }
}

// The NaN tripwire: once a subgroup's tier copy is authoritative its host
// copy is poisoned, so state consumed without a re-fetch fails loudly.
// Engine::snapshot_subgroup (called qualified, bypassing OffloadEngine's
// tier-reading override) shows the host copies as they are.
TEST(OffloadEngine, OnlyHostResidentStateStaysFiniteOnTheHost) {
  for (const char* preset : {"mlp_offload", "deepspeed_zero3"}) {
    EngineRig rig;
    const auto opts = EngineRig::fast_options(EngineOptions::preset(preset));
    OffloadEngine engine(rig.context_for(opts), opts, EngineRig::layout());
    const auto host_state_is = [&](u32 id, bool finite) {
      Subgroup host = engine.Engine::snapshot_subgroup(id);
      const std::span<const f32> state = host.state();
      return std::all_of(state.begin(), state.end(), [&](f32 x) {
        return finite ? std::isfinite(x) : std::isnan(x);
      });
    };
    engine.initialize();
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      EXPECT_TRUE(host_state_is(id, false)) << preset << " init sg " << id;
    }
    for (u64 iter = 0; iter < 3; ++iter) {
      rig.run_one_iteration(engine, iter);
      const std::vector<u32> resident = engine.host_resident();
      if (std::string(preset) == "mlp_offload") {
        EXPECT_EQ(resident.size(), 3u);
      } else {
        EXPECT_TRUE(resident.empty());
      }
      for (u32 id = 0; id < engine.num_subgroups(); ++id) {
        const bool is_resident =
            std::find(resident.begin(), resident.end(), id) != resident.end();
        EXPECT_TRUE(host_state_is(id, is_resident))
            << preset << " iter " << iter << " sg " << id
            << (is_resident ? " resident" : " evicted");
      }
    }
  }
}

TEST(OffloadEngine, OnlyTheBaselineGradientFlushLeasesPoolBuffers) {
  // Fetches and flushes move the subgroup images themselves, and the host
  // part of a deposit generates straight into the accumulation buffer.
  // The pool serves only the baseline's FP32 gradient flush: one lease per
  // subgroup per iteration, never from the heap, never waited for.
  ThreadPool pool(3);
  for (const char* preset : {"mlp_offload", "deepspeed_zero3"}) {
    EngineRig rig;
    const auto opts = EngineRig::fast_options(EngineOptions::preset(preset));
    EngineContext ctx = rig.context_for(opts);
    ctx.cpu_pool = &pool;
    OffloadEngine engine(ctx, opts, EngineRig::layout());
    engine.initialize();
    EXPECT_EQ(engine.scratch_stats().acquires, 0u) << preset;
    rig.run_one_iteration(engine, 0);
    const BufferPool::Stats before = engine.scratch_stats();
    rig.run_one_iteration(engine, 1);
    const BufferPool::Stats after = engine.scratch_stats();
    const u64 flush_leases =
        opts.delayed_grad_conversion ? 0 : engine.num_subgroups();
    EXPECT_EQ(after.acquires - before.acquires, flush_leases) << preset;
    EXPECT_EQ(after.heap_fallbacks, 0u) << preset;
    EXPECT_EQ(after.blocked_waits, 0u) << preset;
  }
}

// Schedules the host residents last, least recently used first: every
// resident is evicted by the non-residents ahead of it, then fetched again
// in the same phase — right behind its own flush when the cache holds all
// but one subgroup.
class ResidentsLast final : public UpdateOrderPolicy {
 public:
  const std::string& name() const override {
    static const std::string n = "test_residents_last";
    return n;
  }
  bool uses_host_cache() const override { return true; }
  std::vector<u32> order(u32 n, u64,
                         std::span<const u32> resident) const override {
    std::vector<u32> o;
    for (u32 id = 0; id < n; ++id) {
      if (std::find(resident.begin(), resident.end(), id) == resident.end()) {
        o.push_back(id);
      }
    }
    o.insert(o.end(), resident.begin(), resident.end());
    return o;
  }
};

TEST(OffloadEngine, RefetchAfterEvictionWaitsForTheFlush) {
  register_update_order_policy("test_residents_last",
                               [] { return std::make_unique<ResidentsLast>(); });
  constexpr u32 kSubgroups = 4;
  const ShardLayout layout =
      make_shard_layout(kSubgroupParams * kSubgroups, 1, 0, kSubgroupParams);
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.update_order_policy = "test_residents_last";
  opts.host_cache_subgroups = kSubgroups - 1;
  OffloadEngine engine(rig.context(), opts, layout);
  opts.engine = "cpu_only";
  const auto reference = make_engine(rig.context(), opts, layout);
  engine.initialize();
  reference->initialize();

  u32 refetched = 0;
  for (u64 iter = 0; iter < 6; ++iter) {
    const std::size_t residents = engine.host_resident().size();
    for (u32 id = 0; id < kSubgroups; ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
      reference->deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    reference->wait_gradient_io();
    const IterationReport report = engine.run_update(iter);
    reference->run_update(iter);
    refetched += static_cast<u32>(residents - report.host_cache_hits);
    ASSERT_EQ(engine.state_checksum(), reference->state_checksum())
        << "iteration " << iter;
  }
  // The schedule really re-fetched evicted residents.
  EXPECT_GE(refetched, 5u);
}

TEST(OffloadEngine, StaticPlacementIgnoresObservations) {
  // With the eq1_static policy the quotas must stay at the seeded values
  // no matter what the transfers observe.
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.placement_policy = "eq1_static";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  const auto seeded = engine.placement().quotas();
  for (u64 iter = 0; iter < 3; ++iter) rig.run_one_iteration(engine, iter);
  EXPECT_EQ(engine.placement().quotas(), seeded);
  EXPECT_EQ(engine.placement().bandwidths(),
            rig.vtier.path_bandwidths());
}

TEST(OffloadEngine, AdaptivePlacementUpdatesEstimates) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  const auto seeded = engine.placement().bandwidths();
  rig.run_one_iteration(engine, 0);
  // Observed bandwidths replace the microbenchmark seeds after the first
  // transfers (they include queueing, so they differ from the nominal).
  EXPECT_NE(engine.placement().bandwidths(), seeded);
}

TEST(OffloadEngine, SelectablePoliciesProduceRunnableScenarios) {
  // Every registry combination is a runnable engine configuration, not
  // just a constructible one (the equivalence suite checks the bits; this
  // checks the pipeline mechanics under each schedule).
  for (const char* placement : {"round_robin", "bandwidth_greedy",
                                "contention_aware"}) {
    for (const char* order : {"ascending", "host_resident_first"}) {
      EngineRig rig;
      auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
      opts.placement_policy = placement;
      opts.update_order_policy = order;
      OffloadEngine engine(rig.context(), opts, EngineRig::layout());
      engine.initialize();
      for (u64 iter = 0; iter < 2; ++iter) {
        rig.run_one_iteration(engine, iter);
      }
      for (u32 id = 0; id < engine.num_subgroups(); ++id) {
        EXPECT_EQ(engine.snapshot_subgroup(id).step(), 2u)
            << placement << "/" << order << " sg " << id;
      }
    }
  }
}

TEST(OffloadEngine, HostResidentFirstHitsEverythingTheCacheHolds) {
  EngineRig rig;
  auto opts = EngineRig::fast_options(EngineOptions::mlp_offload());
  opts.update_order_policy = "host_resident_first";
  OffloadEngine engine(rig.context(), opts, EngineRig::layout());
  engine.initialize();
  rig.run_one_iteration(engine, 0);
  ASSERT_EQ(engine.host_resident().size(), 3u);

  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    engine.deposit_gradients_async(1, id, true, true);
  }
  engine.wait_gradient_io();
  const auto report = engine.run_update(1);
  EXPECT_EQ(report.host_cache_hits, 3u)
      << "every resident subgroup must be consumed before eviction";
}

TEST(OffloadEngine, DistributionConservesTotalBytes) {
  EngineRig rig;
  OffloadEngine engine(rig.context(),
                       EngineRig::fast_options(EngineOptions::mlp_offload()),
                       EngineRig::layout());
  engine.initialize();
  const u64 expected =
      kSubgroupParams * kNumSubgroups * kOptimStateBytesPerParam;
  for (u64 iter = 0; iter < 3; ++iter) {
    rig.run_one_iteration(engine, iter);
    const auto dist = engine.distribution();
    const u64 total = dist.host_sim_bytes +
                      std::accumulate(dist.path_sim_bytes.begin(),
                                      dist.path_sim_bytes.end(), u64{0});
    EXPECT_EQ(total, expected) << "iteration " << iter;
    EXPECT_GT(dist.host_sim_bytes, 0u) << "cache keeps the tail resident";
  }
  EXPECT_EQ(engine.host_resident().size(), 3u);
}

}  // namespace
}  // namespace mlpo
