// Design-choice ablation: adaptive bandwidth re-estimation (paper §3.3).
// Scenario: the PFS comes under external I/O pressure mid-run (a second
// batch job starts hammering it), dropping to a quarter of its nominal
// bandwidth. The adaptive performance model discovers the shift from
// observed transfer times and repartitions subgroups toward the NVMe; the
// static variant keeps shipping the original share to the degraded path.
// This is also the paper's stated future-work scenario ("mitigate
// predictable fluctuations in I/O bandwidth").
#include <cstdio>

#include "bench_common.hpp"
#include "core/offload_engine.hpp"
#include "harness/bench_registry.hpp"
#include "tiers/fluctuating_tier.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo::bench {
namespace {

struct RunResult {
  f64 quiet_update_s;     // avg update before the interference
  f64 pressured_update_s; // avg update while the PFS is degraded
  std::vector<u32> final_quotas;
};

RunResult run_one(bool adaptive, f64 time_scale) {
  const SimClock clock(time_scale);
  const auto testbed = TestbedSpec::testbed1();

  VirtualTier vtier;
  vtier.add_path(testbed.make_nvme_tier(clock, "nvme"));
  // PFS at nominal speed for ~3 iterations, then degraded to 25%.
  ThrottleSpec pfs_spec;
  pfs_spec.read_bw = testbed.pfs_read_bw;
  pfs_spec.write_bw = testbed.pfs_write_bw;
  pfs_spec.duplex_penalty = testbed.pfs_duplex_penalty;
  BandwidthSchedule schedule;
  schedule.segments = {{0.0, 1.0}, {95.0, 0.25}};
  vtier.add_path(std::make_shared<FluctuatingTier>(
      "pfs", std::make_shared<MemoryTier>("pfs-back"), clock, pfs_spec,
      schedule, /*persistent=*/true));

  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = 128;
  IoScheduler io(clock, &vtier, io_cfg);
  const GradSource grads;
  EngineContext ctx;
  ctx.clock = &clock;
  ctx.vtier = &vtier;
  ctx.io = &io;
  ctx.grads = &grads;

  EngineOptions opts = EngineOptions::mlp_offload();
  opts.placement_policy = adaptive ? "adaptive_ema" : "eq1_static";
  opts.elem_scale = 65536;
  opts.host_cache_subgroups = 8;
  opts.cpu_update_rate = testbed.cpu_update_rate_node;

  // One worker with a 40B-scale shard (single-process view keeps the
  // comparison clean).
  const auto layout =
      make_shard_layout(paper_model("40B").parameters(), 4, 0);
  OffloadEngine engine(ctx, opts, layout);
  engine.initialize();

  RunResult result{0, 0, {}};
  int quiet = 0, pressured = 0;
  for (u64 iter = 0; iter < 10; ++iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    const auto report = engine.run_update(iter);
    if (clock.now() < 95.0) {
      result.quiet_update_s += report.update_seconds;
      ++quiet;
    } else {
      result.pressured_update_s += report.update_seconds;
      ++pressured;
    }
  }
  if (quiet) result.quiet_update_s /= quiet;
  if (pressured) result.pressured_update_s /= pressured;
  result.final_quotas = engine.placement().quotas();
  return result;
}

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  const f64 scale = env_time_scale();
  TablePrinter table({"Placement", "Quiet update (s)", "Pressured update (s)",
                      "Slowdown", "Final NVMe:PFS quota"});
  for (const bool adaptive : {false, true}) {
    const auto r = run_one(adaptive, scale);
    table.add_row(
        {adaptive ? "adaptive (ours)" : "static",
         TablePrinter::num(r.quiet_update_s, 1),
         TablePrinter::num(r.pressured_update_s, 1),
         TablePrinter::num(r.pressured_update_s / r.quiet_update_s, 2) + "x",
         std::to_string(r.final_quotas[0]) + ":" +
             std::to_string(r.final_quotas.size() > 1 ? r.final_quotas[1] : 0)});
    const json::Object params{{"placement", adaptive ? "adaptive" : "static"}};
    out.push_back(metric("pressured_update_seconds", "s",
                         r.pressured_update_s, Better::kLower, params));
    out.push_back(metric("interference_slowdown", "x",
                         r.pressured_update_s / r.quiet_update_s,
                         Better::kLower, params));
  }
  if (ctx.print_tables()) table.print();
  return out;
}

}  // namespace

void register_ablation_adaptive_model(BenchRegistry& r) {
  r.add({.name = "ablation_adaptive_model",
         .title = "Ablation - adaptive bandwidth re-estimation under PFS "
                  "interference",
         .paper_claim =
             "when the PFS drops to 25% mid-run, the adaptive Eq.-1 model "
             "repartitions subgroups to the NVMe; static placement keeps "
             "paying the degraded path",
         .labels = {"ablation", "scaled"},
         .sweep = {{"placement", {"static", "adaptive"}}},
         .run = run});
}

}  // namespace mlpo::bench
