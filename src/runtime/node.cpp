#include "runtime/node.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <stdexcept>
#include <thread>

#include "policy/policy_registry.hpp"
#include "runtime/cluster_substrate.hpp"
#include "train/sharding.hpp"
#include "util/logging.hpp"

namespace mlpo {

namespace {

/// Pick the error to surface from a set of parallel worker failures. A
/// FailStopError is the signature of an injected node loss; prefer it over
/// any secondary error it may have caused in sibling workers, so the
/// cluster layer classifies the node as failed rather than buggy.
std::exception_ptr preferred_error(
    const std::vector<std::exception_ptr>& errors) {
  std::exception_ptr fallback;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!fallback) fallback = e;
    try {
      std::rethrow_exception(e);
    } catch (const FailStopError&) {
      return e;
    } catch (...) {
    }
  }
  return fallback;
}

}  // namespace

u64 host_cache_budget_bytes(const TestbedSpec& testbed, u64 model_params) {
  // ZeRO-3 runtime structures (parameter partitions, all-reduce buckets,
  // communication staging — paper cites 250-350 GB) plus the FP16
  // gradient-accumulation buffer for the whole node's shard.
  const u64 runtime_base = 280 * GiB;
  const u64 grad_reserve = model_params * kFp16Bytes;
  const u64 reserved = runtime_base + grad_reserve;
  return testbed.host_memory_bytes > reserved
      ? testbed.host_memory_bytes - reserved
      : 0;
}

NodeSim::NodeSim(const SimClock& clock, const NodeConfig& cfg,
                 std::shared_ptr<StorageTier> pfs)
    : clock_(&clock), cfg_(cfg) {
  const u32 gpus = cfg_.testbed.gpus_per_node;
  const u32 world = cfg_.total_world ? cfg_.total_world : gpus;
  if (world % gpus != 0 && cfg_.total_world != 0) {
    throw std::invalid_argument("NodeSim: total_world not a multiple of node size");
  }

  ThreadPool* cpu_pool = nullptr;
  if (cfg_.substrate != nullptr) {
    // Borrowed mode: the substrate's tiers, scheduler and CPU pool are the
    // node's world, and its tenant's latch stands for every path.
    // Constructing the node revives that latch — a rebuilt node is
    // replacement hardware, exactly like a fresh set of FailStopTiers in
    // owned mode (the injector re-arms any still-future deadlines
    // afterwards).
    if (!cfg_.substrate->shared()) {
      throw std::invalid_argument(
          "NodeSim: NodeConfig::substrate points at an owned-mode substrate; "
          "only shared substrates can be borrowed");
    }
    vtier_active_ = &cfg_.substrate->vtier();
    cpu_pool = cfg_.substrate->cpu_pool();
    FailStopLatch& latch = cfg_.substrate->io().tenant_latch(cfg_.tenant);
    latch.revive();
    latches_.assign(vtier_active_->path_count(), &latch);
  } else {
    // With wrap_failstop each path goes behind a FailStopTier so the
    // FailureInjector can take down the node (or one device) mid-run.
    const auto wrap = [&](std::shared_ptr<StorageTier> tier)
        -> std::shared_ptr<StorageTier> {
      if (!cfg_.wrap_failstop) return tier;
      auto failstop = std::make_shared<FailStopTier>(
          tier->name() + "+failstop", std::move(tier), clock);
      latches_.push_back(&failstop->latch());
      return failstop;
    };
    // Each node keeps its file-backed objects apart under a node-indexed
    // directory (the emulated backend is private per node by construction).
    const std::string node_tag =
        "node" + std::to_string(cfg_.first_rank / static_cast<int>(gpus));
    nvme_ = wrap(make_nvme_backend(cfg_.storage, cfg_.testbed, clock, "nvme",
                                   node_tag));
    vtier_ = std::make_unique<VirtualTier>();
    vtier_->add_path(nvme_);
    if (cfg_.attach_pfs) {
      // `pfs` is the cluster-shared fabric (aggregate capacity); each node
      // accesses it through its own NIC-limited client channel. Only the
      // client channel is fail-stop-wrapped: a node loss severs the node's
      // access, the shared fabric itself survives.
      pfs_ = wrap(cfg_.testbed.make_pfs_tier(clock, "pfs", std::move(pfs)));
      vtier_->add_path(pfs_);
    }
    vtier_active_ = vtier_.get();
    cpu_pool_ = std::make_unique<ThreadPool>(
        std::min<u32>(cfg_.testbed.cpu_cores, 8));
    cpu_pool = cpu_pool_.get();
  }
  grads_ = std::make_unique<GradSource>();

  // Per-worker engine options: CPU rate and cache budget are node resources
  // divided between the workers.
  EngineOptions opts = cfg_.engine_opts;
  opts.cpu_update_rate =
      cfg_.testbed.cpu_update_rate_node / static_cast<f64>(gpus);
  if (cfg_.host_cache_override > 0) {
    opts.host_cache_subgroups = cfg_.host_cache_override;
  } else {
    // On a shared substrate the host is not this node's to size against:
    // cache capacity arrives only as an explicit admission-time override
    // (JobManager). With none granted, the budget is zero and the
    // eager-flush fallback below engages.
    const u64 budget = cfg_.substrate != nullptr
        ? 0
        : host_cache_budget_bytes(cfg_.testbed, cfg_.model.parameters());
    const u64 per_worker = budget / gpus;
    const u64 subgroup_bytes =
        cfg_.subgroup_params * kOptimStateBytesPerParam;
    opts.host_cache_subgroups =
        static_cast<u32>(per_worker / subgroup_bytes);
    // Below the pipeline minimum caching cannot work safely; disable it —
    // and since the engines reject a cache-exploiting order policy with a
    // zero-capacity cache, fall back to the eager-flush schedule too. The
    // fallback must itself satisfy EngineOptions::validate, so a
    // zero-prefetch pipeline regains one outstanding prefetch in exchange
    // for the lost cache.
    if (opts.host_cache_subgroups < opts.prefetch_ahead + 1) {
      opts.host_cache_subgroups = 0;
      if (make_update_order_policy(opts.update_order_policy)
              ->uses_host_cache()) {
        MLPO_LOG_WARN << "NodeSim: host-cache budget ("
                      << (per_worker / subgroup_bytes)
                      << " subgroups) below the pipeline minimum; dropping "
                      << "update_order_policy '" << opts.update_order_policy
                      << "' to 'ascending'";
        opts.update_order_policy = "ascending";
      }
      if (opts.prefetch_ahead == 0) opts.prefetch_ahead = 1;
    }
  }

  for (u32 w = 0; w < gpus; ++w) {
    const int rank = cfg_.first_rank + static_cast<int>(w);
    const ShardLayout layout = cfg_.elastic_sharding
        ? make_elastic_shard_layout(cfg_.model.parameters(), world, rank,
                                    cfg_.subgroup_params)
        : make_shard_layout(cfg_.model.parameters(), world, rank,
                            cfg_.subgroup_params);
    if (cfg_.substrate != nullptr) {
      workers_.push_back(std::make_unique<Worker>(
          clock, *vtier_active_, cpu_pool, *grads_, cfg_.substrate->io(),
          cfg_.tenant, static_cast<int>(w), rank, opts, layout));
    } else {
      workers_.push_back(std::make_unique<Worker>(
          clock, *vtier_active_, cpu_pool, *grads_, cfg_.testbed,
          static_cast<int>(w), rank, opts, layout));
    }
  }

  // Phase cost constants. With tensor parallelism the node is one model
  // replica, so forward/backward compute charge the whole model once.
  const u64 params = cfg_.model.parameters();
  f64 fwd_comm = 0, bwd_comm = 0;
  if (cfg_.dp_nodes > 1) {
    // Weak scaling: TP intra-node + DP across nodes.
    const Zero3CommCost dp = zero3_comm_cost(
        cfg_.inter_node, cfg_.dp_nodes, cfg_.model.fp16_param_bytes());
    const u64 act_bytes = static_cast<u64>(cfg_.microbatch) *
                          cfg_.model.seq_length * cfg_.model.hidden_dim *
                          kFp16Bytes;
    const f64 tp = tensor_parallel_seconds(cfg_.intra_node, gpus,
                                           cfg_.model.num_layers, act_bytes);
    fwd_comm = dp.forward_seconds + tp / 2;
    bwd_comm = dp.backward_seconds + tp / 2;
  } else {
    // Single node: ZeRO-3 data parallelism across the node's GPUs over
    // NVLink (parameter allgather + gradient reduce-scatter).
    const Zero3CommCost dp = zero3_comm_cost(cfg_.intra_node, gpus,
                                             cfg_.model.fp16_param_bytes());
    fwd_comm = dp.forward_seconds;
    bwd_comm = dp.backward_seconds;
  }
  fwd_seconds_ = cfg_.gpu_cost.forward_seconds(params, cfg_.microbatch) + fwd_comm;
  bwd_seconds_ = cfg_.gpu_cost.backward_seconds(params, cfg_.microbatch) + bwd_comm;
}

void NodeSim::initialize() {
  // Initial distribution runs in parallel across workers (one-off setup).
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    threads.emplace_back([this, w, &errors] {
      try {
        workers_[w]->initialize();
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (auto error = preferred_error(errors)) std::rethrow_exception(error);
}

IterationReport NodeSim::run_iteration(u64 iteration) {
  const u32 num_workers = worker_count();
  // Workers + the coordinating thread; the coordinator only takes phase
  // timestamps at the barriers.
  std::barrier sync(num_workers + 1);

  std::vector<IterationReport> update_reports(num_workers);
  std::vector<std::exception_ptr> errors(num_workers);
  constexpr int kPhases = 3;  // start->fwd+bwd done->update done->iteration end

  const auto body = [&](u32 w) {
    Worker& worker = *workers_[w];
    // Forward + backward for every accumulation micro-step. Forward is a
    // pure compute+comm charge; backward interleaves gradient deposits.
    for (u32 m = 0; m < cfg_.accum_steps; ++m) {
      const u64 sample = iteration * cfg_.accum_steps + m;
      clock_->sleep_for(fwd_seconds_);
      worker.run_backward_micro(sample, m == 0, m + 1 == cfg_.accum_steps,
                                bwd_seconds_);
    }
  };

  std::vector<std::thread> threads;
  for (u32 w = 0; w < num_workers; ++w) {
    threads.emplace_back([&, w] {
      int phases_done = 0;
      try {
        sync.arrive_and_wait();  // iteration start
        body(w);
        sync.arrive_and_wait();  // fwd+bwd done
        ++phases_done;
        update_reports[w] = workers_[w]->run_update(iteration);
        sync.arrive_and_wait();  // update done
        ++phases_done;
        sync.arrive_and_wait();  // iteration end
        ++phases_done;
      } catch (...) {
        errors[w] = std::current_exception();
        // Keep the barrier protocol alive so no thread deadlocks.
        for (; phases_done < kPhases; ++phases_done) sync.arrive_and_wait();
      }
    });
  }

  sync.arrive_and_wait();
  const f64 t_start = clock_->now();
  sync.arrive_and_wait();
  const f64 t_fb = clock_->now();
  sync.arrive_and_wait();
  const f64 t_update = clock_->now();
  sync.arrive_and_wait();
  for (auto& t : threads) t.join();
  if (auto error = preferred_error(errors)) std::rethrow_exception(error);

  // Merge: phase walls from the barrier clock; forward attributed
  // analytically (fwd and bwd interleave across micro-steps).
  IterationReport report;
  report.iteration = iteration;
  report.forward_seconds = fwd_seconds_ * cfg_.accum_steps;
  report.backward_seconds =
      std::max(0.0, (t_fb - t_start) - report.forward_seconds);
  report.update_seconds = t_update - t_fb;
  for (const auto& r : update_reports) report.accumulate_counters(r);
  ++iterations_run_;
  return report;
}

std::vector<IterationReport> NodeSim::run(u32 iterations, u32 warmup) {
  std::vector<IterationReport> kept;
  for (u32 i = 0; i < iterations; ++i) {
    IterationReport r = run_iteration(i);
    if (i >= warmup) kept.push_back(std::move(r));
  }
  return kept;
}

void NodeSim::fail_stop() {
  if (latches_.empty()) {
    throw std::logic_error(
        "NodeSim::fail_stop: node built without wrap_failstop; enable it in "
        "NodeConfig (or the resilience JSON section) to inject failures");
  }
  for (FailStopLatch* latch : latches_) latch->kill();
}

void NodeSim::arm_fail_stop(std::size_t path, f64 kill_at_vtime) {
  if (borrowed() && path != npos) {
    throw std::logic_error(
        "NodeSim::arm_fail_stop: path-scoped failures are unsupported on a "
        "shared substrate (the tiers belong to every tenant); inject a "
        "whole-node (kind \"node\") failure instead");
  }
  if (latches_.empty()) {
    throw std::logic_error(
        "NodeSim::arm_fail_stop: node built without wrap_failstop; enable "
        "it in NodeConfig (or the resilience JSON section) to inject "
        "failures");
  }
  if (path == npos) {
    for (FailStopLatch* latch : latches_) latch->arm(kill_at_vtime);
    return;
  }
  if (path >= latches_.size()) {
    throw std::out_of_range("NodeSim::arm_fail_stop: path " +
                            std::to_string(path) + " out of range");
  }
  latches_[path]->arm(kill_at_vtime);
}

bool NodeSim::failstop_dead(std::size_t path) {
  return path < latches_.size() && latches_[path]->dead();
}

bool NodeSim::any_failstop_dead() {
  return std::any_of(latches_.begin(), latches_.end(),
                     [](const FailStopLatch* latch) { return latch->dead(); });
}

u64 NodeSim::cancel_queued_io() {
  u64 cancelled = 0;
  for (auto& w : workers_) cancelled += w->io().cancel_queued({}, w->tenant());
  return cancelled;
}

Engine::Distribution NodeSim::node_distribution() const {
  Engine::Distribution total;
  total.path_sim_bytes.assign(vtier_active_->path_count(), 0);
  for (const auto& w : workers_) {
    const auto d = w->engine().distribution();
    total.host_sim_bytes += d.host_sim_bytes;
    for (std::size_t p = 0; p < d.path_sim_bytes.size(); ++p) {
      total.path_sim_bytes[p] += d.path_sim_bytes[p];
    }
  }
  return total;
}

}  // namespace mlpo
