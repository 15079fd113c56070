// Extension study: virtual-tier generalization (paper §3.2 "this principle
// can be generalized", §3.5 object stores, and the conclusion's CXL future
// work). Starting from the NVMe-only baseline, alternative storage paths
// are added one by one — PFS, a DAOS-class object store, a CXL memory pool
// — and the Eq.-1 performance model absorbs each into the virtual tier
// with zero engine changes. Update time falls with every added path,
// approximately as the inverse of the aggregate min(R,W) bandwidth.
#include <cstdio>

#include "bench_common.hpp"
#include "core/offload_engine.hpp"
#include "harness/bench_registry.hpp"
#include "tiers/memory_tier.hpp"

namespace mlpo::bench {
namespace {

f64 run_with_paths(u32 num_paths, f64 time_scale, std::vector<u32>* quotas) {
  const SimClock clock(time_scale);
  const auto testbed = TestbedSpec::testbed1();

  VirtualTier vtier;
  vtier.add_path(testbed.make_nvme_tier(clock, "nvme"));
  if (num_paths >= 2) vtier.add_path(testbed.make_pfs_tier(clock, "pfs"));
  if (num_paths >= 3) {
    vtier.add_path(testbed.make_object_store_tier(clock, "daos", 3.0 * GB,
                                                  3.0 * GB));
  }
  if (num_paths >= 4) {
    vtier.add_path(TestbedSpec::make_cxl_tier(clock, "cxl", 30.0 * GB));
  }

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
  opts.elem_scale = 65536;
  opts.host_cache_subgroups = 8;
  opts.cpu_update_rate = testbed.cpu_update_rate_node;

  // One worker with a 70B/4 shard; single-process keeps the scaling story
  // about paths rather than contention.
  const auto layout =
      make_shard_layout(paper_model("70B").parameters(), 4, 0);
  OffloadEngine engine(ctx, opts, layout);
  engine.initialize();

  f64 total = 0;
  int measured = 0;
  for (u64 iter = 0; iter < 4; ++iter) {
    for (u32 id = 0; id < engine.num_subgroups(); ++id) {
      engine.deposit_gradients_async(iter, id, true, true);
    }
    engine.wait_gradient_io();
    const auto report = engine.run_update(iter);
    if (iter >= 1) {
      total += report.update_seconds;
      ++measured;
    }
  }
  *quotas = engine.placement().quotas();
  return total / measured;
}

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  const char* labels[] = {"NVMe only", "+ PFS (VAST)", "+ object store",
                          "+ CXL pool (30 GB/s)"};
  TablePrinter table({"Virtual tier", "Paths", "Update (s)", "vs NVMe only",
                      "Subgroup quotas"});
  f64 baseline = 0;
  for (u32 paths = 1; paths <= 4; ++paths) {
    std::vector<u32> quotas;
    const f64 update = run_with_paths(paths, env_time_scale(), &quotas);
    if (paths == 1) baseline = update;
    std::string quota_str;
    for (std::size_t i = 0; i < quotas.size(); ++i) {
      if (i) quota_str += ":";
      quota_str += std::to_string(quotas[i]);
    }
    table.add_row({labels[paths - 1], std::to_string(paths),
                   TablePrinter::num(update, 1),
                   TablePrinter::num(baseline / update, 2) + "x", quota_str});
    const json::Object params{{"paths", std::to_string(paths)}};
    out.push_back(metric("update_seconds", "s", update, Better::kLower,
                         params));
    out.push_back(metric("speedup_vs_nvme", "x", baseline / update,
                         Better::kHigher, params));
  }
  if (ctx.print_tables()) {
    table.print();
    std::printf("\nThe CXL pool (memory-class bandwidth) absorbs most of the "
                "placement once\nadded — the paper's motivation for exploring "
                "CXL as a next offload level.\n");
  }
  return out;
}

}  // namespace

void register_extension_virtual_tiers(BenchRegistry& r) {
  r.add({.name = "extension_virtual_tiers",
         .title = "Extension - virtual-tier generalization (NVMe -> +PFS -> "
                  "+object store -> +CXL pool)",
         .paper_claim =
             "each added path joins the Eq.-1 virtual tier with zero engine "
             "changes; update time falls with aggregate bandwidth (§3.2 "
             "generalization + conclusion's CXL future work)",
         .labels = {"extension", "scaled"},
         .sweep = {{"paths", {"1", "2", "3", "4"}}},
         .run = run});
}

}  // namespace mlpo::bench
