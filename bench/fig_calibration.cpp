// Calibration: the simulator against the real storage backends.
//
// The same training schedule (identical layout, gradients, policies) runs
// three times: on the emulated NVMe pipeline (ThrottledTier + SimClock
// scaling, the substrate of every paper figure), on the synchronous
// FileTier, and on the io_uring-backed UringFileTier — the latter two
// against a temp directory at time_scale == 1, so virtual seconds are wall
// seconds and every transfer is genuine storage I/O.
//
// Three things are measured per backend:
//   * state checksum — must be bit-identical across all three (the
//     simulator/system switch cannot change numerics; a mismatch throws
//     and fails the case);
//   * alloc churn — the engine gradient pool's heap_fallbacks over the
//     whole run. Deterministically zero on the steady-state I/O path, and
//     smoke-gated at zero in bench/baselines/smoke.json;
//   * model divergence — how far the placement policy's bandwidth EMA
//     drifted from the nominal seed after observing the run's transfers.
//     Near zero on the emulated tier (it serves exactly its spec);
//     machine-dependent on real backends, so reported as informational
//     telemetry (the CI calibration artifact), never gated.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/offload_engine.hpp"
#include "harness/bench_registry.hpp"
#include "io/io_scheduler.hpp"
#include "io/uring_backend.hpp"
#include "tiers/file_tier.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"
#include "tiers/virtual_tier.hpp"

namespace mlpo::bench {
namespace {

namespace fs = std::filesystem;

constexpr u64 kSubgroupParams = 4 * 1024 * 1024;
constexpr u32 kNumSubgroups = 8;
/// Low enough that real runs move real bytes (~100 KiB serialized per
/// subgroup), high enough that the whole case stays in the smoke budget.
constexpr u64 kElemScale = 512;
constexpr f64 kNvmeReadBw = 2e9;
constexpr f64 kNvmeWriteBw = 1.5e9;

struct BackendResult {
  u64 checksum = 0;
  f64 update_seconds = 0;   ///< virtual, averaged over measured iterations
  f64 wall_seconds = 0;     ///< real, whole run
  u64 pool_acquires = 0;    ///< gradient-pool leases over the whole run
  u64 heap_fallbacks = 0;   ///< the alloc-churn metric (gated at zero)
  f64 divergence_pct = 0;   ///< max |EMA - nominal| / nominal over paths
};

std::shared_ptr<StorageTier> make_backend(const std::string& kind,
                                          const SimClock& clock,
                                          const fs::path& root) {
  if (kind == "sim") {
    ThrottleSpec spec{kNvmeReadBw, kNvmeWriteBw};
    return std::make_shared<ThrottledTier>(
        "nvme", std::make_shared<MemoryTier>("nvme-back"), clock, spec);
  }
  if (kind == "file") {
    return std::make_shared<FileTier>("nvme", root / "file", kNvmeReadBw,
                                      kNvmeWriteBw);
  }
  UringFileTier::Options opts;
  opts.read_bw = kNvmeReadBw;
  opts.write_bw = kNvmeWriteBw;
  return std::make_shared<UringFileTier>("nvme", root / "uring", opts);
}

BackendResult run_backend(const std::string& kind, const fs::path& root) {
  // Real backends pair with time_scale == 1 (wall time IS virtual time);
  // the emulated tier runs at the usual bench scale.
  const SimClock clock(kind == "sim" ? env_time_scale() : 1.0);
  VirtualTier vtier;
  vtier.add_path(make_backend(kind, clock, root));

  IoScheduler::Config io_cfg;
  io_cfg.queue_depth = 128;
  IoScheduler io(clock, &vtier, io_cfg);
  const GradSource grads;

  EngineOptions opts = EngineOptions::mlp_offload();
  opts.multipath = false;  // one NVMe path is what the backends swap out
  opts.elem_scale = kElemScale;
  opts.host_cache_subgroups = 3;
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

  const auto wall_start = std::chrono::steady_clock::now();
  engine->initialize();

  BackendResult result;
  const u32 iters = env_iters();
  const u32 warmup = env_warmup();
  for (u64 iter = 0; iter < iters; ++iter) {
    for (u32 id = 0; id < engine->num_subgroups(); ++id) {
      engine->deposit_gradients_async(iter, id, true, true);
    }
    engine->wait_gradient_io();
    const auto report = engine->run_update(iter);
    if (iter >= warmup) result.update_seconds += report.update_seconds;
  }
  result.update_seconds /= (iters - warmup);
  result.wall_seconds =
      std::chrono::duration<f64>(std::chrono::steady_clock::now() - wall_start)
          .count();
  result.checksum = engine->state_checksum();

  const auto* offload = dynamic_cast<const OffloadEngine*>(engine.get());
  if (offload == nullptr) {
    throw std::logic_error("fig_calibration: expected the offload engine");
  }
  // Whole-run pool accounting (initialize + every iteration), not the
  // per-iteration report delta: any hidden heap traffic counts.
  const BufferPool::Stats pool = offload->scratch_stats();
  result.pool_acquires = pool.acquires;
  result.heap_fallbacks = pool.heap_fallbacks;

  // EMA-vs-nominal divergence across the bound paths. The policy was
  // seeded with vtier.path_bandwidths(); after the run its estimates
  // reflect observed transfers (simulated charges or real device time).
  const std::vector<f64> nominal = vtier.path_bandwidths();
  const std::vector<f64> estimate = offload->placement().bandwidths();
  for (std::size_t p = 0; p < estimate.size() && p < nominal.size(); ++p) {
    if (nominal[p] <= 0) continue;
    const f64 pct = std::abs(estimate[p] - nominal[p]) / nominal[p] * 100.0;
    if (pct > result.divergence_pct) result.divergence_pct = pct;
  }
  return result;
}

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  print_header("calibration",
               "same schedule, emulated vs real storage; identical state, "
               "zero steady-state allocation");

  const fs::path root =
      fs::temp_directory_path() /
      ("mlpo_calib_" + std::to_string(static_cast<unsigned>(::getpid())) +
       "_r" + std::to_string(ctx.repeat_index()));
  fs::remove_all(root);
  fs::create_directories(root);

  std::vector<telemetry::Metric> out;
  TablePrinter table({"Backend", "Checksum", "Update (vs)", "Wall (s)",
                      "Pool leases", "Heap fallbacks", "Model div (%)"});
  u64 reference_checksum = 0;
  const std::vector<std::string> kinds{"sim", "file", "uring_file"};
  for (const auto& kind : kinds) {
    const BackendResult r = run_backend(kind, root);
    if (kind == "sim") {
      reference_checksum = r.checksum;
    } else if (r.checksum != reference_checksum) {
      throw std::runtime_error(
          "fig_calibration: state checksum diverged on backend '" + kind +
          "' — the simulator/system switch changed numerics");
    }
    table.add_row({kind, std::to_string(r.checksum),
               TablePrinter::num(r.update_seconds, 4),
               TablePrinter::num(r.wall_seconds, 3),
               std::to_string(r.pool_acquires),
               std::to_string(r.heap_fallbacks),
               TablePrinter::num(r.divergence_pct, 2)});

    json::Object params;
    params["backend"] = kind;
    // The alloc-churn gate: zero heap traffic on the staging path, every
    // backend. Deterministic, so kLower against a zero baseline is a hard
    // equality gate.
    out.push_back(metric("pool_heap_fallbacks", "allocs",
                         static_cast<f64>(r.heap_fallbacks), Better::kLower,
                         params));
    // Informational calibration telemetry: wall time is a machine fact,
    // not a regression — it rides the non-gating BENCH_calibration.json
    // artifact.
    out.push_back(metric("pool_acquires", "leases",
                         static_cast<f64>(r.pool_acquires), Better::kNeither,
                         params));
    out.push_back(metric("update_seconds", "vs", r.update_seconds,
                         Better::kNeither, params));
    out.push_back(metric("wall_seconds", "s", r.wall_seconds,
                         Better::kNeither, params));
    // EMA divergence: on the emulated tier the transfers serve exactly
    // their spec, so the bandwidth EMA settling far from nominal means the
    // perf model's feedback loop broke — gate it, with a wide per-metric
    // band (the EMA path is wall-clock-fed and noisy across runners). Real
    // backends stay informational: their divergence measures the machine.
    telemetry::Metric divergence =
        metric("model_divergence", "%", r.divergence_pct,
               kind == "sim" ? Better::kLower : Better::kNeither, params);
    if (kind == "sim") divergence.threshold_pct = 50;
    out.push_back(std::move(divergence));
  }
  if (ctx.print_tables()) {
    table.print();
    std::printf("\nAll backends reached checksum %llu; staging pools served "
                "every lease from the slab.\n",
                static_cast<unsigned long long>(reference_checksum));
  }

  std::error_code ec;
  fs::remove_all(root, ec);
  return out;
}

}  // namespace

void register_fig_calibration(BenchRegistry& registry) {
  registry.add(BenchCase{
      .name = "fig_calibration",
      .title = "Calibration - simulator vs real storage backends",
      .paper_claim =
          "scale-reduced emulation predicts the same training state the real "
          "backends produce; the I/O path allocates nothing in steady state",
      .labels = {"smoke", "storage", "calibration"},
      .sweep = {{"backend", {"sim", "file", "uring_file"}}},
      .run = run});
}

}  // namespace mlpo::bench
