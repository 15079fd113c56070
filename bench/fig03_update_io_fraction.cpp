// Figure 3: fraction of the update phase spent in disk I/O, DeepSpeed
// ZeRO-3 with NVMe offloading on Testbed-1. The paper shows the 20B
// host-resident reference at 100% compute (2.3 s) and every SSD-offloaded
// model at ~99% I/O (66.5 s for 40B up to 479 s for 120B... as measured on
// their 4xH100 node).
#include <cstdio>

#include "bench_common.hpp"
#include "core/cpu_only_engine.hpp"
#include "harness/bench_registry.hpp"
#include "train/sharding.hpp"

namespace mlpo::bench {
namespace {

// Paper reference rows (update I/O seconds, compute seconds).
struct PaperRow {
  const char* label;
  f64 io_s;
  f64 compute_s;
};
const PaperRow kPaper[] = {
    {"20B CPU", 0.0, 2.3},   {"20B", 66.5, 0.7},   {"40B", 211.0, 2.1},
    {"70B", 331.8, 3.2},     {"120B", 479.1, 4.7},
};

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  TablePrinter table({"Model", "Update (s)", "I/O time (s)", "Compute (s)",
                      "I/O frac", "Paper I/O frac"});

  // Row 1: the 20B host-memory reference (pure CPU update).
  {
    const SimClock clock(env_time_scale());
    const GradSource grads;
    EngineContext engine_ctx;
    engine_ctx.clock = &clock;
    engine_ctx.grads = &grads;
    EngineOptions opts;
    opts.cpu_update_rate = TestbedSpec::testbed1().cpu_update_rate_node;
    const auto model = baseline_20b();
    opts.elem_scale = elem_scale_for(model.parameters());
    CpuOnlyEngine engine(engine_ctx, opts, make_shard_layout(model, 1, 0));
    engine.initialize();
    engine.deposit_gradients(0, true);
    const auto report = engine.run_update(0);
    table.add_row({"20B CPU", TablePrinter::num(report.update_seconds),
                   "0.0", TablePrinter::num(report.update_compute_seconds),
                   TablePrinter::pct(0.0), TablePrinter::pct(0.0)});
    out.push_back(metric("update_seconds", "s", report.update_seconds,
                         Better::kLower, {{"model", "20B CPU"}}));
  }

  // SSD-offloaded rows: DeepSpeed baseline, NVMe only, minimal host cache
  // (the paper's configuration offloads even the 20B model for this study).
  const ModelConfig rows[] = {baseline_20b(), paper_model("40B"),
                              paper_model("70B"), paper_model("120B")};
  const f64 paper_frac[] = {0.99, 0.99, 0.99, 0.99};
  int i = 0;
  for (const auto& model : rows) {
    auto cfg = scenario(model, TestbedSpec::testbed1(),
                        EngineOptions::deepspeed_zero3());
    cfg.attach_pfs = false;
    cfg.host_cache_override = 0;
    const auto result = run_scenario(cfg);
    const f64 io = result.avg.fetch_seconds + result.avg.flush_seconds;
    table.add_row({model.name, TablePrinter::num(result.avg.update_seconds),
                   TablePrinter::num(io),
                   TablePrinter::num(result.avg.update_compute_seconds),
                   TablePrinter::pct(result.avg.update_io_fraction()),
                   TablePrinter::pct(paper_frac[i++])});
    out.push_back(metric("update_seconds", "s", result.avg.update_seconds,
                         Better::kLower, {{"model", model.name}}));
    out.push_back(metric("update_io_fraction", "frac",
                         result.avg.update_io_fraction(), Better::kNeither,
                         {{"model", model.name}}));
  }
  if (ctx.print_tables()) {
    table.print();
    std::printf("\nPaper reference (their testbed):\n");
    TablePrinter ref({"Model", "I/O (s)", "Compute (s)"});
    for (const auto& r : kPaper) {
      ref.add_row({r.label, TablePrinter::num(r.io_s),
                   TablePrinter::num(r.compute_s)});
    }
    ref.print();
  }
  return out;
}

}  // namespace

void register_fig03_update_io_fraction(BenchRegistry& r) {
  r.add({.name = "fig03_update_io_fraction",
         .title =
             "Figure 3 - Disk I/O share of the update phase (DeepSpeed ZeRO-3)",
         .paper_claim =
             "host-resident 20B updates are pure compute; SSD-offloaded "
             "models spend ~99% of the update phase in disk I/O",
         .labels = {"figure", "scaled"},
         .sweep = {{"model", {"20B CPU", "20B", "40B", "70B", "120B"}}},
         .run = run});
}

}  // namespace mlpo::bench
