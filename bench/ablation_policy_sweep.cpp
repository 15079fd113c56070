// Policy-layer ablation: sweep every registered placement policy (fixed
// alternating order) and every registered ordering policy (fixed adaptive
// placement) over one two-path engine scenario, plus the DeepSpeed-ZeRO-3
// and MLP-Offload preset bundles as anchors.
//
// Doubles as two regression gates:
//   * correctness — every policy combination must reach the same state
//     checksum (the paper's §3.2 equivalence claim); a mismatch throws and
//     fails the case;
//   * performance — the update-phase times are smoke-gated against
//     bench/baselines/smoke.json, so a placement-policy regression (or a
//     preset drifting from its pre-refactor numbers) fails the perf gate.
#include <cstdio>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "harness/bench_registry.hpp"
#include "policy/policy_registry.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"

namespace mlpo::bench {
namespace {

constexpr u64 kSubgroupParams = 4 * 1024 * 1024;
constexpr u32 kNumSubgroups = 12;

struct SweepResult {
  f64 update_seconds = 0;  ///< averaged over measured iterations
  u32 cache_hits = 0;      ///< per iteration, last measured
  u64 checksum = 0;
};

SweepResult run_one(const EngineOptions& base, f64 time_scale) {
  const SimClock clock(time_scale);
  VirtualTier vtier;
  // A 3:2 bandwidth split, as in the engine unit tests: asymmetric enough
  // that placement choices matter. Bandwidths are scaled down so the
  // virtual I/O charges dwarf wall-clock jitter at smoke-gate time scales
  // (the same reasoning as the gate's MLPO_TIME_SCALE=20 knob).
  ThrottleSpec nvme{600e6, 500e6};
  vtier.add_path(std::make_shared<ThrottledTier>(
      "nvme", std::make_shared<MemoryTier>("nvme-back"), clock, nvme));
  ThrottleSpec pfs{350e6, 350e6};
  vtier.add_path(std::make_shared<ThrottledTier>(
      "pfs", std::make_shared<MemoryTier>("pfs-back"), clock, pfs,
      /*persistent=*/true));

  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = 128;
  io_cfg.tier_exclusive_locking = base.tier_exclusive_locking;
  IoScheduler io(clock, &vtier, io_cfg);
  const GradSource grads;

  EngineOptions opts = base;
  opts.elem_scale = 65536;
  opts.host_cache_subgroups = 4;
  opts.cpu_update_rate = 8000e6;

  EngineContext ctx;
  ctx.clock = &clock;
  ctx.vtier = &vtier;
  ctx.io = &io;
  ctx.grads = &grads;
  const auto engine = make_engine(
      ctx, opts,
      make_shard_layout(kSubgroupParams * kNumSubgroups, 1, 0,
                        kSubgroupParams));
  engine->initialize();

  SweepResult result;
  const u32 iters = env_iters();
  const u32 warmup = env_warmup();
  for (u64 iter = 0; iter < iters; ++iter) {
    for (u32 id = 0; id < engine->num_subgroups(); ++id) {
      engine->deposit_gradients_async(iter, id, true, true);
    }
    engine->wait_gradient_io();
    const auto report = engine->run_update(iter);
    if (iter >= warmup) {
      result.update_seconds += report.update_seconds;
      result.cache_hits = report.host_cache_hits;
    }
  }
  result.update_seconds /= (iters - warmup);
  result.checksum = engine->state_checksum();
  return result;
}

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;
  const f64 scale = env_time_scale();

  TablePrinter table({"Scenario", "Placement", "Order", "Update (s)",
                      "Cache hits/iter"});
  u64 reference_checksum = 0;
  bool have_reference = false;
  const auto record = [&](const std::string& scenario,
                          const EngineOptions& opts) {
    const SweepResult r = run_one(opts, scale);
    if (!have_reference) {
      reference_checksum = r.checksum;
      have_reference = true;
    } else if (r.checksum != reference_checksum) {
      // The equivalence claim stopped holding — hard-fail the case.
      throw std::runtime_error(
          "policy sweep: state checksum diverged for scenario '" + scenario +
          "' (placement=" + opts.placement_policy +
          ", order=" + opts.update_order_policy + ")");
    }
    table.add_row({scenario, opts.placement_policy, opts.update_order_policy,
                   TablePrinter::num(r.update_seconds, 2),
                   std::to_string(r.cache_hits)});
    out.push_back(metric("update_seconds", "s", r.update_seconds,
                         Better::kLower, {{"scenario", scenario}}));
  };

  // Preset anchors: the classic DS-vs-MLP ablation pair must keep
  // reproducing its numbers through any policy-layer change.
  record("preset:deepspeed_zero3", EngineOptions::deepspeed_zero3());
  record("preset:mlp_offload", EngineOptions::mlp_offload());

  for (const auto& placement : placement_policy_names()) {
    EngineOptions opts = EngineOptions::mlp_offload();
    opts.placement_policy = placement;
    record("placement:" + placement, opts);
  }
  for (const auto& order : update_order_policy_names()) {
    EngineOptions opts = EngineOptions::mlp_offload();
    opts.update_order_policy = order;
    record("order:" + order, opts);
  }

  if (ctx.print_tables()) {
    table.print();
    std::printf("\nAll %s scenarios reached the same state checksum.\n",
                "policy-sweep");
  }
  return out;
}

}  // namespace

void register_ablation_policy_sweep(BenchRegistry& r) {
  r.add({.name = "ablation_policy_sweep",
         .title = "Ablation - pluggable placement/ordering policy sweep",
         .paper_claim =
             "placement and update order change only where bytes move and "
             "when, never the training state; Eq. 1-style placement beats "
             "oblivious spreads on asymmetric paths",
         .labels = {"smoke", "ablation", "policy"},
         .sweep = {{"scenario",
                    {"presets", "placement policies", "order policies"}}},
         .run = run});
}

}  // namespace mlpo::bench
