// Scheduler study: demand-prefetch latency under concurrent flush load.
//
// One storage path (a ThrottledTier modelling an NVMe-class device) serves
// a single submission queue — libaio-style — carrying both a backlog of
// large lazy-flush writes and a stream of latency-critical demand
// prefetches. The flat-FIFO discipline of the retired AioEngine makes every
// demand read wait behind whatever flush backlog happens to be queued; the
// priority-aware IoScheduler dispatches kDemandPrefetch ahead of
// kLazyFlush, so a demand read waits at most for the transfer already in
// service (dispatch is non-preemptive). The p99 queue wait collapses by
// roughly the backlog depth — a scheduling behaviour the FIFO engine
// cannot reproduce at any thread count. The case throws (and the driver
// exits non-zero) if the priority discipline stops beating FIFO.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench_common.hpp"
#include "harness/bench_registry.hpp"
#include "io/io_batch.hpp"
#include "io/io_scheduler.hpp"
#include "util/mutex.hpp"
#include "tiers/memory_tier.hpp"
#include "tiers/throttled_tier.hpp"

namespace mlpo::bench {
namespace {

constexpr int kReads = 12;
constexpr int kFlushesPerRound = 6;         // burst queued before each fetch
constexpr u64 kFlushSimBytes = 128 * MiB;   // ~0.064 vs each at 2 GB/vs
constexpr u64 kReadSimBytes = 16 * MiB;
constexpr f64 kThinkSeconds = 0.02;  // virtual gap between demand fetches

struct WaitProfile {
  std::vector<f64> demand_waits;  // virtual seconds, submit -> dispatch
  f64 flush_wait_sum = 0;
  u64 flush_count = 0;
};

f64 percentile(std::vector<f64> v, f64 p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<f64>(v.size() - 1));
  return v[idx];
}

WaitProfile run_discipline(bool strict_fifo, f64 time_scale) {
  const SimClock clock(time_scale);
  ThrottleSpec spec{/*read_bw=*/3e9, /*write_bw=*/2e9};
  ThrottledTier device("nvme", std::make_shared<MemoryTier>("nvme-back"),
                       clock, spec);

  // Pre-populate the demand objects (tiny simulated cost).
  const std::vector<u8> payload(4 * KiB, 0x5A);
  for (int r = 0; r < kReads; ++r) {
    device.write("sg/" + std::to_string(r), payload, /*sim_bytes=*/1);
  }

  IoScheduler::Config cfg;
  cfg.queue_depth = 128;  // deep enough that flush bursts never block submit
  cfg.strict_fifo = strict_fifo;
  IoScheduler sched(clock, cfg);

  WaitProfile profile;
  Mutex mu;

  // Each round queues a burst of lazy flushes (the update pipeline's
  // write-back stream) and then issues the latency-critical demand fetch,
  // so every fetch meets a live backlog — the steady state of an update
  // phase, where flushes are produced as fast as fetches are consumed.
  const std::vector<u8> flush_payload(16 * KiB, 0xC3);
  std::vector<u8> staging(4 * KiB);
  IoBatch flushes;
  int flush_seq = 0;
  for (int r = 0; r < kReads; ++r) {
    for (int f = 0; f < kFlushesPerRound; ++f) {
      IoRequest req;
      req.op = IoOp::kWrite;
      req.target = IoTarget::kExternal;
      req.tier = &device;
      req.key = "flush/" + std::to_string(flush_seq++);
      req.src = flush_payload;
      req.sim_bytes = kFlushSimBytes;
      req.priority = IoPriority::kLazyFlush;
      req.on_complete = [&](const IoResult& res) {
        MutexLock lk(mu);
        profile.flush_wait_sum += res.queue_wait_seconds;
        ++profile.flush_count;
      };
      flushes.add(sched.submit(std::move(req)));
    }

    IoRequest req;
    req.op = IoOp::kRead;
    req.target = IoTarget::kExternal;
    req.tier = &device;
    req.key = "sg/" + std::to_string(r);
    req.dst = staging;
    req.sim_bytes = kReadSimBytes;
    req.priority = IoPriority::kDemandPrefetch;
    req.on_complete = [&](const IoResult& res) {
      MutexLock lk(mu);
      profile.demand_waits.push_back(res.queue_wait_seconds);
    };
    sched.submit(std::move(req)).get();
    clock.sleep_for(kThinkSeconds);
  }

  flushes.wait_all();
  sched.drain();
  return profile;
}

std::vector<telemetry::Metric> run(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  const f64 scale = env_time_scale();
  TablePrinter table({"Discipline", "Demand p50 wait (s)", "Demand p99 wait (s)",
                      "Flush mean wait (s)"});
  f64 fifo_p99 = 0, prio_p99 = 0;
  for (const bool fifo : {true, false}) {
    const auto prof = run_discipline(fifo, scale);
    const f64 p50 = percentile(prof.demand_waits, 0.5);
    const f64 p99 = percentile(prof.demand_waits, 0.99);
    const f64 flush_mean =
        prof.flush_count
            ? prof.flush_wait_sum / static_cast<f64>(prof.flush_count)
            : 0;
    if (fifo) {
      fifo_p99 = p99;
    } else {
      prio_p99 = p99;
    }
    table.add_row({fifo ? "flat FIFO (libaio-style)" : "priority (ours)",
                   TablePrinter::num(p50, 3), TablePrinter::num(p99, 3),
                   TablePrinter::num(flush_mean, 3)});
    const json::Object params{{"discipline", fifo ? "fifo" : "priority"}};
    out.push_back(metric("demand_p50_wait", "s", p50, Better::kLower, params));
    out.push_back(metric("demand_p99_wait", "s", p99, Better::kLower, params));
    out.push_back(metric("flush_mean_wait", "s", flush_mean,
                         Better::kNeither, params));
  }
  // Floor the divisor so a zero-wait priority result reads as a huge (but
  // finite, JSON-safe) speedup rather than collapsing the gated ratio to 0.
  const f64 gain = fifo_p99 / std::max(prio_p99, 1e-6);
  out.push_back(metric("demand_p99_speedup", "x", gain, Better::kHigher));

  if (ctx.print_tables()) {
    table.print();
    std::printf("\nDemand-prefetch p99 wait: %.3f s (FIFO) -> %.3f s "
                "(priority), %.1fx better.\n",
                fifo_p99, prio_p99, gain);
  }
  if (prio_p99 >= fifo_p99) {
    throw std::runtime_error(
        "priority scheduling did not improve demand p99 wait over FIFO");
  }
  return out;
}

// --- Demand-window study ---------------------------------------------------
//
// What a wider demand window buys the scheduler: with one fetch in flight
// (submit, wait, compute, repeat) and two storage paths, one device idles
// while the other serves. Revealing the whole frontier up front lets the
// scheduler keep every path busy simultaneously. Two equal devices, half
// the reads on each: windowed submission costs the serial sum, the full
// frontier roughly the per-device maximum — about 2x here, gated. Engines
// reach the wider window through EngineOptions::prefetch_ahead, which
// ablation_prefetch_depth sweeps end to end.

constexpr int kFrontierReads = 12;
constexpr u64 kFrontierSimBytes = 512 * MiB;

f64 run_frontier(bool windowed, f64 time_scale) {
  const SimClock clock(time_scale);
  ThrottleSpec spec{/*read_bw=*/3e9, /*write_bw=*/2e9};
  ThrottledTier dev0("nvme0", std::make_shared<MemoryTier>("nvme0-back"),
                     clock, spec);
  ThrottledTier dev1("pfs0", std::make_shared<MemoryTier>("pfs0-back"),
                     clock, spec);
  ThrottledTier* devices[2] = {&dev0, &dev1};

  const std::vector<u8> payload(4 * KiB, 0x5A);
  for (int r = 0; r < kFrontierReads; ++r) {
    devices[r % 2]->write("sg/" + std::to_string(r), payload, /*sim_bytes=*/1);
  }

  IoScheduler::Config cfg;
  cfg.queue_depth = 128;
  IoScheduler sched(clock, cfg);

  std::vector<std::vector<u8>> staging(kFrontierReads,
                                       std::vector<u8>(4 * KiB));
  const f64 start = clock.now();
  IoBatch batch;
  for (int r = 0; r < kFrontierReads; ++r) {
    IoRequest req;
    req.op = IoOp::kRead;
    req.target = IoTarget::kExternal;
    req.tier = devices[r % 2];
    req.key = "sg/" + std::to_string(r);
    req.dst = staging[static_cast<std::size_t>(r)];
    req.sim_bytes = kFrontierSimBytes;
    req.priority = IoPriority::kDemandPrefetch;
    if (windowed) {
      sched.submit(std::move(req)).get();  // one in flight
    } else {
      batch.add(sched.submit(std::move(req)));  // whole frontier
    }
  }
  batch.wait_all();
  sched.drain();
  return clock.now() - start;
}

std::vector<telemetry::Metric> run_window(BenchContext& ctx) {
  using telemetry::Better;
  std::vector<telemetry::Metric> out;

  const f64 scale = env_time_scale();
  TablePrinter table({"Submission", "Demand phase (s)"});
  f64 windowed_s = 0, frontier_s = 0;
  for (const bool windowed : {true, false}) {
    const f64 elapsed = run_frontier(windowed, scale);
    (windowed ? windowed_s : frontier_s) = elapsed;
    table.add_row({windowed ? "windowed (one in flight)" : "full frontier",
                   TablePrinter::num(elapsed, 3)});
    const json::Object params{
        {"submission", windowed ? "windowed" : "frontier"}};
    out.push_back(
        metric("demand_phase_seconds", "s", elapsed, Better::kLower, params));
  }
  const f64 gain = windowed_s / std::max(frontier_s, 1e-6);
  out.push_back(metric("frontier_speedup", "x", gain, Better::kHigher));

  if (ctx.print_tables()) {
    table.print();
    std::printf("\nDemand phase: %.3f s (windowed) -> %.3f s (frontier), "
                "%.2fx better across 2 paths.\n",
                windowed_s, frontier_s, gain);
  }
  if (frontier_s >= windowed_s) {
    throw std::runtime_error(
        "full-frontier submission did not beat windowed submission");
  }
  return out;
}

}  // namespace

void register_fig_io_scheduler_graph(BenchRegistry& r) {
  r.add({.name = "fig_io_scheduler_graph",
         .title = "Scheduler - windowed vs full-frontier demand submission",
         .paper_claim =
             "revealing the whole ready frontier lets the scheduler drive "
             "every storage path concurrently; windowed submission leaves "
             "paths idle",
         .labels = {"smoke", "io", "scheduler"},
         .sweep = {{"submission", {"windowed", "frontier"}}},
         .run = run_window});
}

void register_fig_io_scheduler(BenchRegistry& r) {
  r.add({.name = "fig_io_scheduler",
         .title = "Scheduler - demand-prefetch wait under concurrent flush "
                  "load",
         .paper_claim =
             "a flat FIFO queues demand reads behind the entire flush "
             "backlog; priority classes dispatch them next, so p99 wait "
             "drops to ~one in-service transfer",
         .labels = {"smoke", "io", "scheduler"},
         .sweep = {{"discipline", {"fifo", "priority"}}},
         .run = run});
}

}  // namespace mlpo::bench
