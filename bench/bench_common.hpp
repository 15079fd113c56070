// Shared plumbing for the paper-figure benchmark harnesses.
//
// Every bench case regenerates one table or figure from the paper's
// evaluation: same workload, same parameter sweep, same reported rows. The
// substrate is the scaled-time emulation described in README.md (its
// introduction and "Architecture: engines, policies, and the unified I/O
// path"), so the reproduction targets are the *shapes* (who wins, by what
// factor, where the crossovers sit), not the authors' absolute testbed
// numbers — each case prints the paper's reference values alongside for
// comparison.
//
// Environment knobs (strictly validated; a malformed value aborts the run
// with an error naming the variable instead of silently misconfiguring it):
//   MLPO_TIME_SCALE    virtual seconds per real second (default 500)
//   MLPO_BENCH_ITERS   iterations per scenario          (default 3)
//   MLPO_BENCH_WARMUP  of which warmup                  (default 1,
//                      clamped default 0 when iters is 1; must be < iters)
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "runtime/trainer.hpp"
#include "telemetry/json_reporter.hpp"
#include "telemetry/table_printer.hpp"
#include "util/env.hpp"

namespace mlpo::bench {

f64 env_time_scale();
u32 env_iters();
u32 env_warmup();

/// Parse-and-check every MLPO_* knob up front so a bad value fails the run
/// before any case spends time measuring. Throws env::EnvError.
void validate_bench_env();

/// Pick an element scale that keeps real memory modest for `params`.
u64 elem_scale_for(u64 params);

struct ScenarioResult {
  IterationReport avg;                ///< averaged post-warmup report
  Engine::Distribution distribution;  ///< end-of-run placement
};

/// Build a TrainerConfig for a standard paper scenario.
TrainerConfig scenario(const ModelConfig& model, const TestbedSpec& testbed,
                       const EngineOptions& engine, u32 nodes = 1);

/// Run the scenario and average the measured iterations.
ScenarioResult run_scenario(const TrainerConfig& cfg);

/// DeepSpeed-baseline vs MLP-Offload pair for one model/testbed — the
/// shared sweep step of Figs. 7-9, 11-13 and the subgroup ablation. The
/// baseline never attaches the PFS; `tweak` (if set) applies to both.
struct EnginePairResult {
  ScenarioResult ds;
  ScenarioResult mlp;
};
EnginePairResult run_engine_pair(
    const ModelConfig& model, const TestbedSpec& testbed, u32 nodes = 1,
    const std::function<void(TrainerConfig&)>& tweak = {});

/// Banner: figure/table id, what the paper shows, what we measure.
void print_header(const std::string& id, const std::string& paper_claim);

/// Metric-row shorthand for case run() bodies.
telemetry::Metric metric(std::string name, std::string unit, f64 value,
                         telemetry::Better better = telemetry::Better::kNeither,
                         json::Object params = {});

/// Formatters.
std::string gb_per_s(f64 bytes_per_vsec);
std::string gib(u64 bytes);

}  // namespace mlpo::bench
