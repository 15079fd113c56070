#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <limits>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/offload_engine.hpp"
#include "io/io_scheduler.hpp"
#include "io/uring_backend.hpp"
#include "probe.hpp"
#include "resilience/recovery_driver.hpp"
#include "runtime/job_manager.hpp"
#include "runtime/trainer.hpp"

namespace mlpo::benchmark {

namespace fs = std::filesystem;
using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload table
// ---------------------------------------------------------------------------

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> table{
      {"mlp_40b",
       "paper headline: two-path placement, cache-friendly order and "
       "tier-exclusive locking across 4 workers on the critical path; "
       "kernel speed bypassed"},
      {"zero3_40b",
       "ZeRO-3 baseline: FP32 gradient flushes and eager flushes share NVMe "
       "with reads; placement and host cache bypassed"},
      {"floor_mem",
       "overhead floor: every modelled cost vanishes, so only the speed of "
       "our own code (kernels, scheduler, pools, tiers) moves it"},
      {"tenants_4",
       "4 jobs weighted 3:1:1:1 on one substrate: weighted DRR, admission "
       "and shared tiers on the critical path"},
  };
  return table;
}

bool is_workload(const std::string& name) {
  const auto& t = workloads();
  return std::any_of(t.begin(), t.end(),
                     [&](const WorkloadInfo& w) { return w.name == name; });
}

namespace {

constexpr u32 kCores = 4;  ///< update-pool size on a 4-core host
constexpr u32 kHeavyWeight = 3;

/// Host-speed reference for wall-clock workloads: their real-time metrics
/// are scaled to a host on which HostCalibration::seconds() takes this long
/// (what a 4-core Xeon VM measured when the benchmark was defined).
constexpr f64 kReferenceCalibrationS = 5.0e-3;

/// How strongly floor_mem times follow the calibration: the log-log slope
/// of time against calibration time over 20 runs whose host factor ranged
/// from 0.72 to 1.25. The update phase is memory- and hand-off-bound like
/// the calibration and follows it fully; whole iterations, mostly
/// compute-bound gradient generation, follow it less.
constexpr f64 kUpdateHostSlope = 1.0;
constexpr f64 kIterationHostSlope = 0.8;

/// A single-job workload: its trainer configuration and how its times are
/// reported.
struct SingleJob {
  TrainerConfig config;
  /// Times are real seconds (the clock runs so fast that every modelled
  /// cost vanishes) instead of paper-scale virtual seconds.
  bool wall_clock = false;
};

/// Testbed-1 with the update pool capped at this host's core count.
TrainerConfig testbed1_config(f64 time_scale) {
  TrainerConfig cfg;
  cfg.model = paper_model("40B");
  cfg.testbed = TestbedSpec::testbed1();
  cfg.testbed.cpu_cores = kCores;
  cfg.engine = EngineOptions::preset("mlp_offload");
  cfg.elem_scale = 65536;
  cfg.time_scale = time_scale;
  return cfg;
}

SingleJob single_job(const std::string& workload) {
  // Time scales give every workload over 100 measured iterations in a
  // 20-second run, so iter_s_p90 has at least 10 samples beyond it.
  if (workload == "mlp_40b") return {testbed1_config(300), false};
  if (workload == "zero3_40b") {
    TrainerConfig cfg = testbed1_config(1200);
    cfg.engine = EngineOptions::preset("deepspeed_zero3");
    cfg.attach_pfs = false;
    return {cfg, false};
  }
  if (workload == "floor_mem") {
    // One worker holding all 4.9 M real elements. A million virtual
    // seconds per real second makes every modelled charge (transfers,
    // link, GPU compute, the emulated NVMe's per-request latency) round
    // to nothing; what remains is the library's own real work. The
    // emulated in-memory NVMe stands in for real files, whose cost on a
    // shared VM disk drifts by tens of percent between runs.
    TrainerConfig cfg = testbed1_config(1e6);
    cfg.testbed.gpus_per_node = 1;
    cfg.attach_pfs = false;
    cfg.elem_scale = 8192;
    return {cfg, true};
  }
  throw std::invalid_argument("unknown single-job workload " + workload);
}

/// tenants_4: four 10.3B jobs; the seed rotates which tenant id carries
/// the weight-3 job.
JobManagerConfig tenants_config(u64 seed) {
  TrainerConfig job = testbed1_config(500);
  job.model = ModelConfig{"10.3B", 32, 5120, 40};
  const u64 heavy = seed % 4;
  JobManagerConfig cfg;
  for (u64 j = 0; j < 4; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j + 1);
    spec.config = job;
    spec.weight = j == heavy ? kHeavyWeight : 1;
    cfg.jobs.push_back(spec);
  }
  return cfg;
}

/// The reference: the same model, layout and iteration indices on the
/// host-resident cpu_only engine, with modelled time all but removed.
TrainerConfig reference_config(TrainerConfig cfg) {
  cfg.engine = EngineOptions::preset("cpu_only");
  cfg.time_scale = 1e6;
  cfg.storage = StorageConfig{};
  cfg.host_cache_override = 0;
  return cfg;
}

/// Fixed work timed after every measured iteration of a wall-clock
/// workload: integer hashing and float updates over 512 KiB, a 16 MiB
/// memory round trip, and 100 condition-variable hand-offs to a helper
/// thread -- the three kinds of work a floor iteration is made of. The
/// workload's real-time metrics are divided by the run's median, so a host
/// slowed down by its neighbours does not read as a slower library. It
/// lives here, not in src/, so no library change can speed it up.
class HostCalibration {
 public:
  HostCalibration()
      : a_(kElems, 1.0f), b_(kElems, 0.0f), src_(kBytes, 1), dst_(kBytes, 2) {}

  f64 seconds() {
    const auto start = SteadyClock::now();
    u64 h = 0x9E3779B97F4A7C15ull;
    for (int rep = 0; rep < 8; ++rep) {
      for (std::size_t i = 0; i < kElems; ++i) {
        h ^= h >> 31;
        h *= 0xBF58476D1CE4E5B9ull;
        a_[i] = a_[i] * 0.999f + static_cast<f32>(h >> 40) * 1e-7f;
        b_[i] += a_[i];
      }
    }
    std::memcpy(dst_.data(), src_.data(), kBytes);
    std::memcpy(src_.data(), dst_.data(), kBytes);
    handoffs(100);
    volatile f32 sink =
        b_[h & (kElems - 1)] + static_cast<f32>(src_[h % kBytes]);
    (void)sink;
    return std::chrono::duration<f64>(SteadyClock::now() - start).count();
  }

 private:
  static constexpr std::size_t kElems = 1 << 16;
  static constexpr std::size_t kBytes = 8 << 20;

  static void handoffs(int rounds) {
    std::mutex mutex;
    std::condition_variable cv;
    bool helper_turn = false;
    std::thread helper([&] {
      for (int i = 0; i < rounds; ++i) {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return helper_turn; });
        helper_turn = false;
        cv.notify_all();
      }
    });
    for (int i = 0; i < rounds; ++i) {
      std::unique_lock<std::mutex> lock(mutex);
      helper_turn = true;
      cv.notify_all();
      cv.wait(lock, [&] { return !helper_turn; });
    }
    helper.join();
  }

  std::vector<f32> a_, b_;
  std::vector<u8> src_, dst_;
};

// ---------------------------------------------------------------------------
// Samples and counters
// ---------------------------------------------------------------------------

/// The fields of one IterationReport the metrics use, converted to
/// reported seconds, plus real time.
struct Sample {
  f64 iteration_s = 0;
  f64 forward_s = 0;
  f64 backward_s = 0;
  f64 update_s = 0;
  u64 params = 0;
  f64 fetch_s = 0;
  f64 flush_s = 0;
  f64 compute_s = 0;
  u64 fetched = 0;
  u64 flushed = 0;
  u32 cache_hits = 0;
  u32 subgroups = 0;
  f64 effective_io = 0;  ///< bytes per reported second
  u64 frontier_high_water = 0;
  u64 tasks_stolen = 0;
  f64 executor_idle_s = 0;  ///< real seconds
  f64 wall_s = 0;           ///< real seconds inside run_iteration
  f64 calibration_s = 0;    ///< HostCalibration right after it, or 0
  SteadyClock::time_point end;
};

/// `spv`: reported seconds per virtual second of the run's clock.
Sample sample_of(const IterationReport& r, f64 spv) {
  Sample s;
  s.iteration_s = r.iteration_seconds() * spv;
  s.forward_s = r.forward_seconds * spv;
  s.backward_s = r.backward_seconds * spv;
  s.update_s = r.update_seconds * spv;
  s.params = r.params_updated;
  s.fetch_s = r.fetch_seconds * spv;
  s.flush_s = r.flush_seconds * spv;
  s.compute_s = r.update_compute_seconds * spv;
  s.fetched = r.sim_bytes_fetched;
  s.flushed = r.sim_bytes_flushed;
  s.cache_hits = r.host_cache_hits;
  s.subgroups = r.subgroups_processed;
  s.effective_io = r.effective_io_throughput() / spv;
  s.frontier_high_water = r.graph_frontier_high_water;
  s.tasks_stolen = r.graph_tasks_stolen;
  s.executor_idle_s = r.graph_executor_idle_seconds;
  return s;
}

struct TierReading {
  u64 reads = 0, writes = 0, bytes_read = 0, bytes_written = 0;
  f64 read_s = 0, write_s = 0;  ///< virtual seconds
};

/// Cumulative layer counters read at one instant.
struct Counters {
  IoScheduler::Stats io;            ///< times in virtual seconds
  std::map<u32, u64> tenant_bytes;  ///< shared scheduler only
  std::vector<TierReading> tiers;   ///< per VirtualTier path
  BufferPool::Stats pool;           ///< summed over offload engines
  f64 cpu_s = 0;                    ///< process user + system
};

void add_io(IoScheduler::Stats& into, const IoScheduler::Stats& s) {
  for (std::size_t c = 0; c < kIoPriorityCount; ++c) {
    auto& a = into.priority[c];
    const auto& b = s.priority[c];
    a.submitted += b.submitted;
    a.completed += b.completed;
    a.failed += b.failed;
    a.cancelled += b.cancelled;
    a.sim_bytes += b.sim_bytes;
    a.queue_wait_seconds += b.queue_wait_seconds;
    a.service_seconds += b.service_seconds;
  }
  into.coalesced_batches += s.coalesced_batches;
  into.coalesced_requests += s.coalesced_requests;
  into.max_queue_depth = std::max(into.max_queue_depth, s.max_queue_depth);
}

void add_pool(BufferPool::Stats& into, const BufferPool::Stats& s) {
  into.acquires += s.acquires;
  into.releases += s.releases;
  into.heap_fallbacks += s.heap_fallbacks;
  into.blocked_waits += s.blocked_waits;
  into.bytes_in_use += s.bytes_in_use;
  into.peak_bytes_in_use += s.peak_bytes_in_use;
}

u64 io_bytes(const IoScheduler::Stats& s) {
  u64 bytes = 0;
  for (const auto& p : s.priority) bytes += p.sim_bytes;
  return bytes;
}

f64 process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<f64>(tv.tv_sec) + static_cast<f64>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

f64 peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<f64>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

/// What one running job exposes to the counter readers.
struct JobView {
  std::string name;
  u32 tenant = 0;  ///< 0 on an owned substrate
  u32 weight = 1;
  Trainer* trainer = nullptr;
};

/// The world the counters are read from: one owned trainer, or several
/// borrowed ones over a shared substrate.
struct World {
  std::vector<JobView> jobs;
  ClusterSubstrate* shared = nullptr;

  VirtualTier& vtier() const {
    return shared != nullptr ? shared->vtier()
                             : jobs.front().trainer->cluster().node(0).vtier();
  }

  template <typename Fn>
  void for_each_worker(const JobView& job, Fn&& fn) const {
    ClusterSim& cluster = job.trainer->cluster();
    for (u32 n = 0; n < cluster.node_count(); ++n) {
      NodeSim& node = cluster.node(n);
      for (u32 w = 0; w < node.worker_count(); ++w) fn(node.worker(w));
    }
  }

  /// Scheduler counters of one job: its own workers' schedulers, or its
  /// tenant slice of the shared one.
  IoScheduler::Stats job_io(const JobView& job) const {
    if (shared != nullptr) return shared->io().tenant_stats(job.tenant);
    IoScheduler::Stats total;
    for_each_worker(job, [&](Worker& w) { add_io(total, w.io().stats()); });
    return total;
  }

  BufferPool::Stats job_pool(const JobView& job) const {
    BufferPool::Stats total;
    for_each_worker(job, [&](Worker& w) {
      if (const auto* e = dynamic_cast<const OffloadEngine*>(&w.engine())) {
        add_pool(total, e->scratch_stats());
      }
    });
    return total;
  }

  std::vector<TierReading> tiers() const {
    std::vector<TierReading> out;
    VirtualTier& vt = vtier();
    for (std::size_t p = 0; p < vt.path_count(); ++p) {
      const TierStats& s = vt.path(p).stats();
      out.push_back({s.reads.load(), s.writes.load(), s.bytes_read.load(),
                     s.bytes_written.load(), s.read_seconds(),
                     s.write_seconds()});
    }
    return out;
  }

  Counters read() const {
    Counters c;
    if (shared != nullptr) c.io = shared->io().stats();
    for (const auto& job : jobs) {
      const IoScheduler::Stats io = job_io(job);
      if (shared == nullptr) add_io(c.io, io);
      c.tenant_bytes[job.tenant] = io_bytes(io);
      add_pool(c.pool, job_pool(job));
    }
    c.tiers = tiers();
    c.cpu_s = process_cpu_seconds();
    return c;
  }
};

/// One job's readings at an iteration boundary, as trace counter events.
void emit_counters(Tracer& tracer, const World& world, const JobView& job,
                   u32 lane, const IterationReport& r) {
  const std::string prefix = job.name + ".";
  tracer.counter(prefix + "iteration", lane,
                 {{"iteration_s", r.iteration_seconds()},
                  {"update_s", r.update_seconds},
                  {"fetch_s", r.fetch_seconds},
                  {"flush_s", r.flush_seconds},
                  {"compute_s", r.update_compute_seconds},
                  {"cache_hits", static_cast<f64>(r.host_cache_hits)},
                  {"subgroups", static_cast<f64>(r.subgroups_processed)}});
  const IoScheduler::Stats io = world.job_io(job);
  std::vector<std::pair<std::string, f64>> io_values;
  for (std::size_t c = 0; c < kIoPriorityCount; ++c) {
    const auto& p = io.priority[c];
    io_values.emplace_back(io_class_names()[c] + "_requests",
                           static_cast<f64>(p.completed + p.failed));
    io_values.emplace_back(io_class_names()[c] + "_queue_wait_s",
                           p.queue_wait_seconds);
  }
  tracer.counter(prefix + "io", lane, std::move(io_values));
  const BufferPool::Stats pool = world.job_pool(job);
  tracer.counter(prefix + "pool", lane,
                 {{"acquires", static_cast<f64>(pool.acquires)},
                  {"blocked_waits", static_cast<f64>(pool.blocked_waits)},
                  {"bytes_in_use", static_cast<f64>(pool.bytes_in_use)}});
  const Engine::Distribution dist = job.trainer->distribution();
  std::vector<std::pair<std::string, f64>> placement{
      {"host_gb", static_cast<f64>(dist.host_sim_bytes) / 1e9}};
  for (std::size_t p = 0; p < dist.path_sim_bytes.size(); ++p) {
    placement.emplace_back(tier_path_names().at(p) + "_gb",
                           static_cast<f64>(dist.path_sim_bytes[p]) / 1e9);
  }
  tracer.counter(prefix + "placement", lane, std::move(placement));
  std::vector<std::pair<std::string, f64>> tier_values;
  const auto tiers = world.tiers();
  for (std::size_t p = 0; p < tiers.size(); ++p) {
    const std::string& path = tier_path_names().at(p);
    tier_values.emplace_back(path + "_read_gb",
                             static_cast<f64>(tiers[p].bytes_read) / 1e9);
    tier_values.emplace_back(path + "_write_gb",
                             static_cast<f64>(tiers[p].bytes_written) / 1e9);
  }
  tracer.counter("tiers", lane, std::move(tier_values));
}

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct JobRun {
  JobView view;
  u32 lane = 0;
  u64 base_index = 0;           ///< 1000 * seed
  f64 spv = 1;                  ///< reported seconds per virtual second
  HostCalibration* calibration = nullptr;  ///< wall-clock workloads only
  f64 calibration_cpu_s = 0;    ///< process CPU spent calibrating
  std::vector<u64> indices;     ///< every index run, warmup included
  std::vector<Sample> samples;  ///< measured iterations only
  u64 checksum = 0;
};

/// Run iterations of one job until `stop(done)` says so. The index of each
/// is base_index + its position, so the seed changes the gradients while
/// the parity the alternating order policy follows stays the same.
template <typename Stop>
void run_loop(JobRun& job, const World& world, bool measured, Stop&& stop,
              Tracer& tracer, u64 parent) {
  ClusterSim& cluster = job.view.trainer->cluster();
  const SimClock& clock = job.view.trainer->clock();
  while (!stop(measured ? job.samples.size() : job.indices.size())) {
    const u64 index = job.base_index + job.indices.size();
    IterationReport report;
    const auto start = SteadyClock::now();
    {
      Span span(tracer, "run_iteration", parent, job.lane, &clock);
      report = cluster.run_iteration(index);
    }
    const auto end = SteadyClock::now();
    job.indices.push_back(index);
    if (!measured) continue;
    Sample sample = sample_of(report, job.spv);
    sample.wall_s = std::chrono::duration<f64>(end - start).count();
    sample.end = end;
    if (job.calibration != nullptr) {
      const f64 cpu = process_cpu_seconds();
      sample.calibration_s = job.calibration->seconds();
      job.calibration_cpu_s += process_cpu_seconds() - cpu;
    }
    job.samples.push_back(sample);
    if (tracer.enabled()) {
      Span span(tracer, "snapshot", parent, job.lane, &clock);
      emit_counters(tracer, world, job.view, job.lane, report);
    }
  }
}

u64 replay_reference(const TrainerConfig& cfg, const std::vector<u64>& indices,
                     Tracer& tracer, u64 parent, u32 lane) {
  Span span(tracer, "reference", parent, lane);
  Trainer reference(reference_config(cfg));
  reference.initialize();
  ClusterSim& cluster = reference.cluster();
  for (const u64 index : indices) cluster.run_iteration(index);
  return cluster_state_checksum(cluster);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of a non-empty sample.
f64 percentile(std::vector<f64> v, f64 q) {
  if (v.empty()) throw std::logic_error("percentile of an empty sample");
  std::sort(v.begin(), v.end());
  const f64 pos = q * static_cast<f64>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<f64>(lo));
}

template <typename Field>
f64 percentile(const std::vector<const Sample*>& samples, f64 q, Field f) {
  std::vector<f64> values;
  values.reserve(samples.size());
  for (const Sample* s : samples) values.push_back(f(*s));
  return percentile(std::move(values), q);
}

f64 ratio(f64 num, f64 den) { return den > 0 ? num / den : 0; }

/// Everything the metric formulas need from one run.
struct Measurement {
  std::vector<f64> construct_s, initialize_s, setup_s;
  std::vector<const Sample*> primary;  ///< iter_s population
  std::vector<const Sample*> heavy;    ///< heavy_iter_s population
  std::vector<const Sample*> kept;     ///< primary + heavy (agg throughput)
  std::vector<const Sample*> all;      ///< every measured iteration
  f64 longest_job_iteration_s = 0;     ///< max over jobs of summed iter time
  u64 window_iterations = 0;
  /// Library CPU seconds in the measured window (calibration excluded).
  f64 cpu_s = 0;
  f64 spv = 1;  ///< reported seconds per virtual second
  /// Wall-clock workloads: kReferenceCalibrationS / median calibration,
  /// applied (raised to the slopes above) to their real-time end-to-end
  /// metrics; 1 elsewhere.
  f64 host_factor = 1;
  Counters before, after;
  f64 peak_rss_mib = 0;
  f64 backward_compute_s = 0;  ///< modelled, per iteration, reported s
  u64 threads = 0;
  f64 host_state_share = 0, pfs_state_share = 0, bw_error_pct = 0;
  KernelProbe probe;
  f64 snapshot_s = 0;  ///< tracer self time in the measured loops
  std::vector<std::pair<u32, u32>> tenant_weights;  ///< tenant, weight
};

MetricValues end_to_end(const Measurement& m) {
  const f64 k = std::pow(m.host_factor, kIterationHostSlope);
  const f64 k_update = std::pow(m.host_factor, kUpdateHostSlope);
  const auto iter = [](const Sample& s) { return s.iteration_s; };
  MetricValues e;
  e["iter_s_p50"] = k * percentile(m.primary, 0.5, iter);
  e["iter_s_p90"] = k * percentile(m.primary, 0.9, iter);
  // Update throughput as the paper defines it (Figs. 8, 12): parameters
  // over update-phase time, summed across iterations.
  f64 primary_params = 0, update_s = 0;
  for (const Sample* s : m.primary) {
    primary_params += static_cast<f64>(s->params);
    update_s += s->update_s;
  }
  e["update_mparams_per_s"] = primary_params / 1e6 / update_s / k_update;
  f64 params = 0;
  for (const Sample* s : m.kept) params += static_cast<f64>(s->params);
  e["agg_mparams_per_s"] = params / 1e6 / m.longest_job_iteration_s / k;
  e["heavy_iter_s_p50"] = k * percentile(m.heavy, 0.5, iter);
  e["cpu_s_per_iter"] = k * m.cpu_s / static_cast<f64>(m.window_iterations);
  e["setup_s"] = k * percentile(m.setup_s, 0.5);
  e["peak_rss_mib"] = m.peak_rss_mib;
  return e;
}

/// Per-layer metrics are as measured: no host-speed scaling, times in
/// reported seconds (virtual on the emulated workloads, real on the floor).
MetricValues per_layer(const Measurement& m, const MetricValues& e2e) {
  MetricValues l;
  const f64 n = static_cast<f64>(m.window_iterations);
  const auto p50 = [&](auto field) {
    return percentile(m.primary, 0.5, field);
  };

  // runtime
  l["runtime.construct_s"] = percentile(m.construct_s, 0.5);
  l["runtime.initialize_s"] = percentile(m.initialize_s, 0.5);
  l["runtime.iter_s_p50"] = e2e.at("iter_s_p50");
  l["runtime.forward_s_p50"] = p50([](const Sample& s) { return s.forward_s; });
  l["runtime.backward_s_p50"] =
      p50([](const Sample& s) { return s.backward_s; });
  l["runtime.update_s_p50"] = p50([](const Sample& s) { return s.update_s; });
  l["runtime.backward_overhead_s"] = p50(
      [&](const Sample& s) { return s.backward_s - m.backward_compute_s; });
  l["runtime.iteration_wall_ms_p50"] =
      1e3 * p50([](const Sample& s) { return s.wall_s; });

  // core
  f64 hits = 0, subgroups = 0, fetch = 0, flush = 0, compute = 0;
  f64 fetched = 0, flushed = 0, eff_io = 0;
  f64 frontier = 0, stolen = 0, idle = 0;
  std::vector<f64> calibrations;
  for (const Sample* s : m.all) {
    hits += s->cache_hits;
    subgroups += s->subgroups;
    fetch += s->fetch_s;
    flush += s->flush_s;
    compute += s->compute_s;
    fetched += static_cast<f64>(s->fetched);
    flushed += static_cast<f64>(s->flushed);
    eff_io += s->effective_io;
    frontier = std::max(frontier, static_cast<f64>(s->frontier_high_water));
    stolen += static_cast<f64>(s->tasks_stolen);
    idle += s->executor_idle_s;
    calibrations.push_back(s->calibration_s);
  }
  const f64 samples = static_cast<f64>(m.all.size());
  l["core.cache_hit_ratio"] = ratio(hits, subgroups);
  l["core.fetch_s_per_iter"] = fetch / samples;
  l["core.flush_s_per_iter"] = flush / samples;
  l["core.compute_s_per_iter"] = compute / samples;
  l["core.update_io_fraction"] = ratio(fetch + flush, fetch + flush + compute);
  l["core.effective_io_gbps"] = eff_io / samples / 1e9;
  l["core.fetched_gb_per_iter"] = fetched / samples / 1e9;
  l["core.flushed_gb_per_iter"] = flushed / samples / 1e9;

  // io: scheduler counter deltas over the measured window
  u64 failed = 0;
  for (std::size_t c = 0; c < kIoPriorityCount; ++c) {
    const auto& a = m.after.io.priority[c];
    const auto& b = m.before.io.priority[c];
    const f64 requests =
        static_cast<f64>((a.completed + a.failed) - (b.completed + b.failed));
    const std::string key = "io." + io_class_names()[c] + ".";
    l[key + "requests_per_iter"] = requests / n;
    l[key + "queue_wait_ms_mean"] =
        1e3 * m.spv *
        ratio(a.queue_wait_seconds - b.queue_wait_seconds, requests);
    l[key + "service_ms_mean"] =
        1e3 * m.spv * ratio(a.service_seconds - b.service_seconds, requests);
    l[key + "cancelled"] = static_cast<f64>(a.cancelled - b.cancelled);
    failed += a.failed - b.failed;
  }
  l["io.coalesced_batches_per_iter"] =
      static_cast<f64>(m.after.io.coalesced_batches -
                       m.before.io.coalesced_batches) / n;
  l["io.max_queue_depth"] = static_cast<f64>(m.after.io.max_queue_depth);
  l["io.failed"] = static_cast<f64>(failed);
  // Byte share over fair-share entitlement min(w / sum(w), 1 / N); a lone
  // job is entitled to everything it moves.
  f64 share_ratio = 1;
  if (m.tenant_weights.size() > 1) {
    const auto moved = [&](u32 tenant) {
      return static_cast<f64>(m.after.tenant_bytes.at(tenant) -
                              m.before.tenant_bytes.at(tenant));
    };
    f64 total_bytes = 0, total_weight = 0;
    for (const auto& [tenant, weight] : m.tenant_weights) {
      total_bytes += moved(tenant);
      total_weight += weight;
    }
    const f64 jobs = static_cast<f64>(m.tenant_weights.size());
    share_ratio = std::numeric_limits<f64>::infinity();
    for (const auto& [tenant, weight] : m.tenant_weights) {
      const f64 entitled = std::min(weight / total_weight, 1.0 / jobs);
      share_ratio =
          std::min(share_ratio, ratio(moved(tenant), total_bytes) / entitled);
    }
  }
  l["io.tenant_share_ratio_min"] = share_ratio;

  // tiers: TierStats deltas (simulated bytes); a tier that records no
  // transfer time reports 0 GB/s
  for (std::size_t p = 0; p < tier_path_names().size(); ++p) {
    TierReading d;
    if (p < m.after.tiers.size()) {
      const TierReading& a = m.after.tiers[p];
      const TierReading& b = m.before.tiers[p];
      d = {a.reads - b.reads, a.writes - b.writes, a.bytes_read - b.bytes_read,
           a.bytes_written - b.bytes_written, a.read_s - b.read_s,
           a.write_s - b.write_s};
    }
    const std::string key = "tiers." + tier_path_names()[p] + ".";
    l[key + "reads_per_iter"] = static_cast<f64>(d.reads) / n;
    l[key + "writes_per_iter"] = static_cast<f64>(d.writes) / n;
    l[key + "read_gb_per_iter"] = static_cast<f64>(d.bytes_read) / n / 1e9;
    l[key + "write_gb_per_iter"] = static_cast<f64>(d.bytes_written) / n / 1e9;
    l[key + "read_gbps"] =
        ratio(static_cast<f64>(d.bytes_read), d.read_s * m.spv) / 1e9;
    l[key + "write_gbps"] =
        ratio(static_cast<f64>(d.bytes_written), d.write_s * m.spv) / 1e9;
  }

  // policy
  l["policy.host_state_share"] = m.host_state_share;
  l["policy.pfs_state_share"] = m.pfs_state_share;
  l["policy.bw_estimate_error_pct"] = m.bw_error_pct;

  // util
  l["util.pool_acquires_per_iter"] =
      static_cast<f64>(m.after.pool.acquires - m.before.pool.acquires) / n;
  l["util.pool_heap_fallbacks"] = static_cast<f64>(
      m.after.pool.heap_fallbacks - m.before.pool.heap_fallbacks);
  l["util.pool_blocked_waits_per_iter"] = static_cast<f64>(
      m.after.pool.blocked_waits - m.before.pool.blocked_waits) / n;
  l["util.pool_peak_mib"] =
      static_cast<f64>(m.after.pool.peak_bytes_in_use) / static_cast<f64>(MiB);

  // train (kernel probe)
  l["train.adam_gbps"] = m.probe.adam_gbps;
  l["train.fp16_upscale_gbps"] = m.probe.fp16_upscale_gbps;
  l["train.grad_generate_gbps"] = m.probe.grad_generate_gbps;
  l["train.memcpy_gbps"] = m.probe.memcpy_gbps;
  l["train.adam_roofline_frac"] = ratio(m.probe.adam_gbps, m.probe.memcpy_gbps);
  l["train.upscale_roofline_frac"] =
      ratio(m.probe.fp16_upscale_gbps, m.probe.memcpy_gbps);

  // graph
  l["graph.frontier_high_water"] = frontier;
  l["graph.tasks_stolen_per_iter"] = stolen / samples;
  l["graph.executor_idle_s_per_iter"] = idle / samples;

  // process
  l["proc.threads"] = static_cast<f64>(m.threads);
  l["proc.cpu_s_per_iter"] = m.cpu_s / static_cast<f64>(m.window_iterations);
  l["proc.calibration_ms"] = 1e3 * percentile(std::move(calibrations), 0.5);

  // Share of the measured loops' wall time spent reading and recording
  // counters between iterations: what tracing costs a closed loop.
  f64 loop_wall = 0;
  for (const Sample* s : m.all) loop_wall += s->wall_s;
  l["trace_overhead_pct"] = 100 * ratio(m.snapshot_s, loop_wall + m.snapshot_s);
  return l;
}

/// Placement state at the end of the measured loop.
void read_policy(const World& world, Measurement& m) {
  u64 host = 0, pfs = 0, total = 0;
  const std::vector<f64> nominal = world.vtier().path_bandwidths();
  for (const auto& job : world.jobs) {
    const Engine::Distribution d = job.trainer->distribution();
    host += d.host_sim_bytes;
    total += d.host_sim_bytes;
    for (std::size_t p = 0; p < d.path_sim_bytes.size(); ++p) {
      total += d.path_sim_bytes[p];
      if (p == 1) pfs += d.path_sim_bytes[p];
    }
    world.for_each_worker(job, [&](Worker& w) {
      const auto* engine = dynamic_cast<const OffloadEngine*>(&w.engine());
      if (engine == nullptr) return;
      const std::vector<f64> estimate = engine->placement().bandwidths();
      for (std::size_t p = 0; p < nominal.size() && p < estimate.size(); ++p) {
        if (nominal[p] <= 0) continue;
        const f64 error = std::abs(estimate[p] - nominal[p]) / nominal[p];
        m.bw_error_pct = std::max(m.bw_error_pct, 100 * error);
      }
    });
  }
  m.host_state_share = ratio(static_cast<f64>(host), static_cast<f64>(total));
  m.pfs_state_share = ratio(static_cast<f64>(pfs), static_cast<f64>(total));
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

std::string filesystem_type(const fs::path& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlay";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::string git_revision() {
  FILE* pipe = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
  const int status = pclose(pipe);  // waits for git to exit
  std::string rev = got && status == 0 ? buf : "";
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
    rev.pop_back();
  }
  return rev.empty() ? "unknown" : rev;
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

json::Object environment(const RunOptions& opts, const Measurement& m,
                         const World& world, const std::vector<JobRun>& jobs) {
  json::Array job_env;
  for (const auto& job : jobs) {
    json::Object j;
    j["name"] = job.view.name;
    j["tenant"] = static_cast<u64>(job.view.tenant);
    j["weight"] = static_cast<u64>(job.view.weight);
    j["iterations"] = static_cast<u64>(job.indices.size());
    j["measured"] = static_cast<u64>(job.samples.size());
    job_env.push_back(std::move(j));
  }
  const TrainerConfig& cfg = world.jobs.front().trainer->config();
  const auto* uring =
      dynamic_cast<const UringFileTier*>(&world.vtier().path(0));
  fs::create_directories(opts.work_dir);
  json::Object env;
  env["workload"] = opts.workload;
  env["seed"] = opts.seed;
  env["seconds"] = opts.seconds;
  env["trace"] = opts.trace;
  env["nproc"] = static_cast<u64>(std::thread::hardware_concurrency());
  env["time_scale"] = cfg.time_scale;
  env["host_factor"] = m.host_factor;
  env["storage_backend"] = cfg.storage.backend;
  env["using_uring"] = uring != nullptr && uring->using_uring();
  env["mlpo_no_uring_set"] = std::getenv("MLPO_NO_URING") != nullptr;
  env["work_dir"] = fs::absolute(opts.work_dir).string();
  env["work_dir_fs"] = filesystem_type(opts.work_dir);
  env["proc_threads"] = m.threads;
  env["git_revision"] = git_revision();
  env["warmup_iterations"] = static_cast<u64>(opts.warmup);
  env["window_iterations"] = m.window_iterations;
  env["jobs"] = std::move(job_env);
  return env;
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

struct SetupTiming {
  std::vector<f64> construct_s, initialize_s, total_s;
};

f64 seconds_since(SteadyClock::time_point t) {
  return std::chrono::duration<f64>(SteadyClock::now() - t).count();
}

/// Build `repeats` instances with `construct` + `initialize`, timing each;
/// every instance but the last is torn down (untimed) before the next.
template <typename T, typename Construct, typename Initialize>
std::unique_ptr<T> timed_setup(u32 repeats, SetupTiming& timing, Tracer& tracer,
                               u64 parent, Construct&& construct,
                               Initialize&& initialize) {
  std::unique_ptr<T> instance;
  for (u32 r = 0; r < repeats; ++r) {
    instance.reset();
    const auto t0 = SteadyClock::now();
    {
      Span span(tracer, "construct", parent, 0);
      instance = construct();
    }
    const auto t1 = SteadyClock::now();
    {
      Span span(tracer, "initialize", parent, 0);
      initialize(*instance);
    }
    const auto t2 = SteadyClock::now();
    timing.construct_s.push_back(std::chrono::duration<f64>(t1 - t0).count());
    timing.initialize_s.push_back(std::chrono::duration<f64>(t2 - t1).count());
    timing.total_s.push_back(std::chrono::duration<f64>(t2 - t0).count());
  }
  return instance;
}

/// Stop rule of a measured loop: a fixed count, or at least
/// min_iterations and until `seconds` have passed since `start`.
auto measured_stop(const RunOptions& opts,
                   const SteadyClock::time_point& start) {
  return [&opts, &start](std::size_t done) {
    if (opts.fixed_iterations) return done >= opts.min_iterations;
    return done >= opts.min_iterations && seconds_since(start) >= opts.seconds;
  };
}

/// Shared tail of both runners: the metrics that need the live world.
void finish_measurement(Measurement& m, const SetupTiming& setup,
                        const World& world, const std::vector<JobRun>& jobs,
                        bool wall_clock, Tracer& tracer) {
  for (const auto& job : jobs) {
    if (job.samples.empty()) {
      throw std::runtime_error("job " + job.view.name +
                               " measured no iterations");
    }
  }
  m.peak_rss_mib = peak_rss_mib();
  m.cpu_s = m.after.cpu_s - m.before.cpu_s;
  for (const auto& job : jobs) m.cpu_s -= job.calibration_cpu_s;
  m.construct_s = setup.construct_s;
  m.initialize_s = setup.initialize_s;
  m.setup_s = setup.total_s;
  m.threads = process_threads();
  read_policy(world, m);
  m.snapshot_s = tracer.total_seconds("snapshot");
  if (wall_clock) {
    std::vector<f64> calibrations;
    for (const Sample* s : m.all) calibrations.push_back(s->calibration_s);
    m.host_factor =
        kReferenceCalibrationS / percentile(std::move(calibrations), 0.5);
  }
}

RunResult result_of(const RunOptions& opts, const Measurement& m,
                    const World& world, const std::vector<JobRun>& jobs) {
  RunResult result;
  for (std::size_t c = 0; c < kIoPriorityCount; ++c) {
    const auto& a = m.after.io.priority[c];
    const auto& b = m.before.io.priority[c];
    result.attempted += a.submitted - b.submitted;
    result.failed += (a.failed - b.failed) + (a.cancelled - b.cancelled);
  }
  result.end_to_end = end_to_end(m);
  result.per_layer = per_layer(m, result.end_to_end);
  result.environment = environment(opts, m, world, jobs);
  return result;
}

RunResult run_single(const RunOptions& opts, Tracer& tracer) {
  const SingleJob spec = single_job(opts.workload);
  const TrainerConfig& cfg = spec.config;

  tracer.name_lane(0, "driver");
  Span root(tracer, "run " + opts.workload, 0, 0);
  SetupTiming setup;
  std::unique_ptr<Trainer> trainer;
  {
    Span span(tracer, "setup", root.id(), 0);
    trainer = timed_setup<Trainer>(
        opts.setup_repeats, setup, tracer, span.id(),
        [&] { return std::make_unique<Trainer>(cfg); },
        [](Trainer& t) { t.initialize(); });
  }

  World world;
  world.jobs.push_back({opts.workload, 0, 1, trainer.get()});
  std::vector<JobRun> jobs(1);
  JobRun& job = jobs.front();
  job.view = world.jobs.front();
  job.base_index = 1000 * opts.seed;
  job.spv = spec.wall_clock ? 1.0 / cfg.time_scale : 1.0;
  std::optional<HostCalibration> calibration;
  if (spec.wall_clock) job.calibration = &calibration.emplace();

  Measurement m;
  m.spv = job.spv;
  {
    Span span(tracer, "warmup", root.id(), 0);
    run_loop(job, world, false,
             [&](std::size_t done) { return done >= opts.warmup; }, tracer,
             span.id());
  }
  {
    Span span(tracer, "measure", root.id(), 0);
    m.before = world.read();
    const auto start = SteadyClock::now();
    run_loop(job, world, true, measured_stop(opts, start), tracer, span.id());
    m.after = world.read();
  }
  m.window_iterations = job.samples.size();
  for (const Sample& s : job.samples) {
    m.primary.push_back(&s);
    m.kept.push_back(&s);
    m.all.push_back(&s);
    m.longest_job_iteration_s += s.iteration_s;
  }
  m.heavy = m.primary;
  m.backward_compute_s = trainer->cluster().node(0).backward_compute_seconds() *
                         cfg.accum_steps * job.spv;
  finish_measurement(m, setup, world, jobs, spec.wall_clock, tracer);
  if (opts.trace) {
    m.probe = probe_kernels(cfg.subgroup_params / cfg.elem_scale, opts.seed,
                            kCores, opts.probe_seconds, tracer, root.id());
  }
  RunResult result = result_of(opts, m, world, jobs);

  job.checksum = cluster_state_checksum(trainer->cluster());
  trainer.reset();
  const u64 reference =
      replay_reference(cfg, job.indices, tracer, root.id(), 0);
  result.checks.push_back(
      {opts.workload, job.checksum, reference, job.indices.size()});
  return result;
}

RunResult run_tenants(const RunOptions& opts, Tracer& tracer) {
  const JobManagerConfig cfg = tenants_config(opts.seed);
  const std::size_t n = cfg.jobs.size();

  tracer.name_lane(0, "driver");
  for (std::size_t j = 0; j < n; ++j) {
    tracer.name_lane(static_cast<u32>(j + 1), cfg.jobs[j].name);
  }
  Span root(tracer, "run " + opts.workload, 0, 0);
  SetupTiming setup;
  std::unique_ptr<JobManager> manager;
  {
    Span span(tracer, "setup", root.id(), 0);
    manager = timed_setup<JobManager>(
        opts.setup_repeats, setup, tracer, span.id(),
        [&] { return std::make_unique<JobManager>(cfg); },
        [&](JobManager& jm) {
          // In parallel across jobs, as JobManager::run does.
          std::vector<std::thread> threads;
          std::vector<std::exception_ptr> errors(n);
          for (std::size_t j = 0; j < n; ++j) {
            threads.emplace_back([&, j] {
              try {
                jm.job(j).initialize();
              } catch (...) {
                errors[j] = std::current_exception();
              }
            });
          }
          for (auto& t : threads) t.join();
          for (auto& e : errors) {
            if (e) std::rethrow_exception(e);
          }
        });
  }

  World world;
  world.shared = &manager->substrate();
  std::vector<JobRun> jobs(n);
  for (std::size_t j = 0; j < n; ++j) {
    Trainer& t = manager->job(j);
    world.jobs.push_back(
        {cfg.jobs[j].name, t.tenant(), cfg.jobs[j].weight, &t});
    jobs[j].view = world.jobs.back();
    jobs[j].lane = static_cast<u32>(j + 1);
    jobs[j].base_index = 1000 * opts.seed;
  }

  Measurement m;
  {
    Span span(tracer, "measure", root.id(), 0);
    const u64 measure_span = span.id();
    std::vector<std::exception_ptr> errors(n);
    std::exception_ptr read_error;
    SteadyClock::time_point start;
    // Every job warms up, then all start measuring at the same instant.
    std::barrier sync(static_cast<std::ptrdiff_t>(n), [&]() noexcept {
      try {
        m.before = world.read();
      } catch (...) {
        read_error = std::current_exception();
      }
      start = SteadyClock::now();
    });
    std::vector<std::thread> threads;
    for (std::size_t j = 0; j < n; ++j) {
      threads.emplace_back([&, j] {
        JobRun& job = jobs[j];
        try {
          Span warm(tracer, "warmup", measure_span, job.lane);
          run_loop(job, world, false,
                   [&](std::size_t done) { return done >= opts.warmup; },
                   tracer, warm.id());
        } catch (...) {
          errors[j] = std::current_exception();
        }
        sync.arrive_and_wait();  // reached even after a failure: no deadlock
        if (errors[j] || read_error) return;
        try {
          Span loop(tracer, "job " + job.view.name, measure_span, job.lane);
          run_loop(job, world, true, measured_stop(opts, start), tracer,
                   loop.id());
        } catch (...) {
          errors[j] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (read_error) std::rethrow_exception(read_error);
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    m.after = world.read();
  }

  // Keep only iterations that ended while every job was still looping, so
  // every kept sample ran under four-way contention.
  SteadyClock::time_point first_exit = SteadyClock::time_point::max();
  for (const auto& job : jobs) {
    if (!job.samples.empty()) {
      first_exit = std::min(first_exit, job.samples.back().end);
    }
  }
  for (const auto& job : jobs) {
    m.window_iterations += job.samples.size();
    std::vector<const Sample*> kept;
    f64 summed = 0;
    for (const Sample& s : job.samples) {
      m.all.push_back(&s);
      if (opts.fixed_iterations || s.end <= first_exit) {
        kept.push_back(&s);
        summed += s.iteration_s;
      }
    }
    m.longest_job_iteration_s = std::max(m.longest_job_iteration_s, summed);
    auto& population = job.view.weight == kHeavyWeight ? m.heavy : m.primary;
    population.insert(population.end(), kept.begin(), kept.end());
    m.kept.insert(m.kept.end(), kept.begin(), kept.end());
    m.tenant_weights.emplace_back(job.view.tenant, job.view.weight);
  }
  m.backward_compute_s =
      manager->job(0).cluster().node(0).backward_compute_seconds() *
      cfg.jobs.front().config.accum_steps;
  finish_measurement(m, setup, world, jobs, false, tracer);
  if (opts.trace) {
    const TrainerConfig& c = cfg.jobs.front().config;
    m.probe = probe_kernels(c.subgroup_params / c.elem_scale, opts.seed, kCores,
                            opts.probe_seconds, tracer, root.id());
  }
  RunResult result = result_of(opts, m, world, jobs);

  for (auto& job : jobs) {
    job.checksum = cluster_state_checksum(job.view.trainer->cluster());
  }
  manager.reset();
  for (std::size_t j = 0; j < n; ++j) {
    const u64 reference = replay_reference(cfg.jobs[j].config, jobs[j].indices,
                                           tracer, root.id(), jobs[j].lane);
    result.checks.push_back({jobs[j].view.name, jobs[j].checksum, reference,
                             jobs[j].indices.size()});
  }
  return result;
}

}  // namespace

RunResult run_workload(const RunOptions& opts, Tracer& tracer) {
  if (!is_workload(opts.workload)) {
    throw std::invalid_argument("unknown workload " + opts.workload);
  }
  RunResult result = opts.workload == "tenants_4" ? run_tenants(opts, tracer)
                                                  : run_single(opts, tracer);
  json::Array checks;
  for (const auto& c : result.checks) {
    json::Object check;
    check["job"] = c.job;
    check["checksum"] = hex(c.measured);
    check["reference_checksum"] = hex(c.reference);
    check["iterations"] = c.iterations;
    checks.push_back(std::move(check));
  }
  result.environment["checks"] = std::move(checks);
  return result;
}

}  // namespace mlpo::benchmark
