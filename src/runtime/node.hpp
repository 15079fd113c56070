// Compute-node simulation: gpus_per_node workers sharing host memory, a
// node-local NVMe tier, optional access to a (cluster-shared) PFS path, and
// the node's CPU cores — the unit the paper's single-node experiments run
// on, and the building block of the weak-scaling cluster.
#pragma once

#include <memory>
#include <vector>

#include "comm/collectives.hpp"
#include "core/engine.hpp"
#include "runtime/gpu_cost.hpp"
#include "runtime/storage_config.hpp"
#include "runtime/testbed.hpp"
#include "runtime/worker.hpp"
#include "telemetry/iteration_report.hpp"
#include "tiers/failstop_tier.hpp"
#include "train/model_config.hpp"

namespace mlpo {

class ClusterSubstrate;

struct NodeConfig {
  ModelConfig model;
  TestbedSpec testbed = TestbedSpec::testbed1();
  /// Template engine options; the node fills in per-worker cpu_update_rate
  /// and host_cache_subgroups (unless host_cache_override is set).
  EngineOptions engine_opts;
  GpuCostModel gpu_cost;
  u64 subgroup_params = kDefaultSubgroupParams;
  u32 microbatch = 1;
  u32 accum_steps = 1;

  /// Total ranks across the job; 0 means single-node (= gpus_per_node).
  u32 total_world = 0;
  /// This node's first global rank (node_index * gpus_per_node).
  int first_rank = 0;
  /// Data-parallel width across nodes (weak scaling); 1 = single node.
  u32 dp_nodes = 1;
  Interconnect intra_node = Interconnect::nvlink();
  Interconnect inter_node = Interconnect::slingshot();

  /// Per-worker host-cache subgroups; 0 derives the budget from the
  /// testbed's host memory minus runtime overheads.
  u32 host_cache_override = 0;

  /// Attach the PFS path to the virtual tier (the engine additionally needs
  /// engine_opts.multipath to place subgroups there).
  bool attach_pfs = true;

  /// Wrap every storage path in a FailStopTier so the FailureInjector can
  /// fail-stop this node (or one of its paths) deterministically. Off by
  /// default: happy-path scenarios pay no wrapper indirection.
  bool wrap_failstop = false;

  /// Shard via make_elastic_shard_layout (world-size-independent global
  /// subgroups): required for elastic restart, where a checkpoint taken
  /// under one node count resumes under another.
  bool elastic_sharding = false;

  /// NVMe-path backend: emulated ThrottledTier by default, real file/
  /// io_uring tiers when selected (see runtime/storage_config.hpp).
  StorageConfig storage;

  /// Borrowed mode (multi-tenant): build no tiers, scheduler, or CPU pool
  /// of our own — run on `substrate`'s shared ones, stamping `tenant` on
  /// every I/O request. The substrate must be in shared mode and must
  /// outlive the node. `storage`, `attach_pfs` and `wrap_failstop` are then
  /// the substrate's concern: the node fail-stops through its tenant's
  /// latch on the shared scheduler (IoScheduler::tenant_latch) instead of
  /// FailStopTier wrappers.
  ClusterSubstrate* substrate = nullptr;
  /// Job id on the shared substrate (0 = the single-job/default tenant).
  u32 tenant = 0;
};

/// Host-memory budget model: free bytes available for caching subgroups
/// after the ZeRO-3 runtime structures (~250 GB base, paper §4.3) and the
/// node's FP16 gradient-accumulation reservation (2 bytes/param) are carved
/// out of host memory.
u64 host_cache_budget_bytes(const TestbedSpec& testbed, u64 model_params);

class NodeSim {
 public:
  /// @param pfs cluster-shared PFS *fabric* (see TestbedSpec); the node
  ///        wraps it in its own per-client channel. nullptr builds a
  ///        private backend (single-node experiments).
  NodeSim(const SimClock& clock, const NodeConfig& cfg,
          std::shared_ptr<StorageTier> pfs = nullptr);

  void initialize();

  /// One full training iteration across all workers (forward, accum_steps x
  /// backward micro-steps, update), with workers synchronised at phase
  /// boundaries. Returns the node-merged report.
  IterationReport run_iteration(u64 iteration);

  /// Run `iterations`, discarding the first `warmup` (paper methodology:
  /// 10 iterations, first 2 warmup).
  std::vector<IterationReport> run(u32 iterations, u32 warmup);

  u32 worker_count() const { return static_cast<u32>(workers_.size()); }
  Worker& worker(u32 i) { return *workers_.at(i); }
  VirtualTier& vtier() { return *vtier_active_; }
  const NodeConfig& config() const { return cfg_; }
  /// Running on a shared substrate (borrowed tiers/scheduler)?
  bool borrowed() const { return cfg_.substrate != nullptr; }

  // --- Fail-stop ----------------------------------------------------------
  // The node holds one FailStopLatch per virtual-tier path, taken at
  // construction: each path's FailStopTier wrapper's when owned (none
  // without NodeConfig::wrap_failstop), or its tenant's scheduler latch for
  // every path when borrowed — there a node loss fails only this job's
  // I/O, queued and future, while other tenants keep flowing. The methods
  // below act on those latches alike in both modes.

  /// Fail-stop this node: every path's latch dies at once.
  void fail_stop();

  /// Arm a deterministic SimClock-driven fail-stop of one path (or, with
  /// path == npos, of the whole node) at virtual time `kill_at_vtime`.
  /// Borrowed mode supports only npos (whole-node): a shared substrate has
  /// no per-node path to kill in isolation.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  void arm_fail_stop(std::size_t path, f64 kill_at_vtime);

  /// Has path `path` (any path) fail-stopped? The FailureInjector's
  /// interface for retiring latched events; an expired deadline latches.
  bool failstop_dead(std::size_t path);
  bool any_failstop_dead();

  /// Cancel this node's requests still queued on its workers' schedulers
  /// (see IoScheduler::cancel_queued): each worker cancels its own tenant,
  /// so on a shared substrate the sweep never touches a neighbour job's
  /// queue. Returns how many were flagged.
  u64 cancel_queued_io();

  /// Node-wide optimizer-state distribution (Fig. 10): host + per path.
  Engine::Distribution node_distribution() const;

  /// Backward-phase compute cost constant (for reporting/verification).
  f64 backward_compute_seconds() const { return bwd_seconds_; }

 private:
  const SimClock* clock_;
  NodeConfig cfg_;
  std::shared_ptr<StorageTier> nvme_;    ///< owned mode only
  std::shared_ptr<StorageTier> pfs_;     ///< owned mode only
  /// One per vtier path (see fail_stop); empty for an owned node built
  /// without wrap_failstop.
  std::vector<FailStopLatch*> latches_;
  std::unique_ptr<VirtualTier> vtier_;   ///< owned mode only
  /// The tier the workers actually run on: vtier_ or the substrate's.
  VirtualTier* vtier_active_ = nullptr;
  std::unique_ptr<ThreadPool> cpu_pool_;  ///< owned mode only
  std::unique_ptr<GradSource> grads_;
  std::vector<std::unique_ptr<Worker>> workers_;
  f64 fwd_seconds_ = 0;  ///< per micro-step fwd compute+comm per worker
  f64 bwd_seconds_ = 0;  ///< per micro-step bwd compute+comm per worker
  u64 iterations_run_ = 0;
};

}  // namespace mlpo
