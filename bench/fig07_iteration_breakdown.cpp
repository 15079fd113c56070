// Figure 7: average iteration time breakdown (forward/backward/update) for
// increasing model sizes on Testbed-1, DeepSpeed ZeRO-3 vs MLP-Offload.
// Paper: 242.3 -> 95.8 s (40B) ... 550.4 -> 262.8 s (120B); iterations
// overall up to 2.7x faster, update phase up to 2.4x faster.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "harness/bench_registry.hpp"

namespace mlpo::bench {
namespace {

struct PaperRow {
  const char* model;
  double ds_total;
  double ours_total;
};
const PaperRow kPaper[] = {
    {"40B", 242.3, 95.8},  {"52B", 238.6, 88.4},  {"70B", 370.6, 144.4},
    {"100B", 572.0, 241.4}, {"120B", 550.4, 262.8},
};

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  TablePrinter table({"Model", "Engine", "Fwd (s)", "Bwd (s)", "Update (s)",
                      "Total (s)", "Speedup", "Paper total"});
  for (const auto& row : kPaper) {
    const auto& model = paper_model(row.model);
    const auto pair = run_engine_pair(model, TestbedSpec::testbed1());
    const IterationReport reports[2] = {pair.ds.avg, pair.mlp.avg};
    const f64 totals[2] = {pair.ds.avg.iteration_seconds(),
                           pair.mlp.avg.iteration_seconds()};
    for (const int mlp : {0, 1}) {
      const auto& r = reports[mlp];
      table.add_row(
          {model.name, mlp ? "MLP-Offload" : "DeepSpeed ZeRO-3",
           TablePrinter::num(r.forward_seconds, 2),
           TablePrinter::num(r.backward_seconds, 1),
           TablePrinter::num(r.update_seconds, 1),
           TablePrinter::num(r.iteration_seconds(), 1),
           mlp ? TablePrinter::num(totals[0] / totals[1], 2) + "x" : "1.00x",
           TablePrinter::num(mlp ? row.ours_total : row.ds_total, 1)});
      out.push_back(metric(
          "iteration_seconds", "s", r.iteration_seconds(), Better::kLower,
          {{"model", model.name}, {"engine", mlp ? "mlp" : "ds"}}));
    }
    out.push_back(metric("iteration_speedup", "x", totals[0] / totals[1],
                         Better::kHigher, {{"model", model.name}}));
  }
  if (ctx.print_tables()) table.print();
  return out;
}

}  // namespace

void register_fig07_iteration_breakdown(BenchRegistry& r) {
  r.add({.name = "fig07_iteration_breakdown",
         .title = "Figure 7 - Iteration breakdown vs model size (Testbed-1)",
         .paper_claim =
             "MLP-Offload cuts update up to 2.4x and whole iterations 2.7x "
             "vs DeepSpeed ZeRO-3",
         .labels = {"figure", "scaled"},
         .sweep = {{"model", {"40B", "52B", "70B", "100B", "120B"}},
                   {"engine", {"ds", "mlp"}}},
         .run = run});
}

}  // namespace mlpo::bench
