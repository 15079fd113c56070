// Priority-aware I/O request scheduler — the single front door for every
// byte of storage and link traffic in the system (tentpole of the unified
// I/O path; paper §3.2/§3.5).
//
// Topology: one bounded submission queue + one dispatch thread per
// *channel*, where the channels are the read and write direction of every
// VirtualTier path, the D2H and H2D PCIe links, and one external channel
// for tiers outside the virtual tier (checkpoint stores, DiskOffloader
// backends). Separate read/write channels per path preserve device duplex:
// a prefetch and a flush on the same NVMe still overlap, exactly as with
// the previous per-worker thread pool — but within one direction, requests
// now dispatch by priority class instead of arrival order.
//
// Scheduling, per channel — two nested disciplines:
//   * tenants first (multi-job sharing): requests carry a tenant id and
//     queue per tenant; when more than one tenant is backlogged, a deficit
//     round-robin over the tenants' byte costs, weighted by
//     Config::tenant_weights, picks whose turn it is. A single backlogged
//     tenant bypasses the DRR entirely, so single-job schedulers behave
//     exactly as before tenancy existed;
//   * priority classes within the chosen tenant, kDemandPrefetch >
//     kGradDeposit > kLazyFlush > kCheckpoint; the strongest non-empty
//     class dispatches first, FIFO within a class (set Config::strict_fifo
//     to collapse everything into arrival order — the flat-FIFO baseline
//     the bench compares against). A light tenant's demand prefetch thus
//     still beats a heavy tenant's lazy flush *within the light tenant's
//     share* — fairness is between tenants, urgency within one;
//   * bounded queue depth per tenant: submit() blocks while the submitting
//     tenant already has Config::queue_depth requests queued on the target
//     channel, so one tenant's backlog can neither starve another tenant's
//     submissions nor evade its own backpressure;
//   * cancellation: a request whose token is cancelled while still queued
//     is dropped at dispatch, its future failing with IoCancelled;
//     cancel_queued() flags queued requests in bulk, optionally scoped to
//     one priority class and/or one tenant;
//   * tenant fail-stop: each tenant has a FailStopLatch (tenant_latch()),
//     the same latch a FailStopTier holds for a device. Killed or past its
//     armed deadline, it fails the tenant's queued requests and later
//     submissions with FailStopError while every other tenant's channels
//     keep flowing; revive() models replacement hardware;
//   * one request per dispatch: each pop runs exactly one request, under
//     its own TierLock lease (taken only once the request is known to be
//     live, and held by an async transfer until it completes);
//   * completion callbacks run on the dispatch thread before the future
//     resolves, carrying observed queue-wait/service times — the hook that
//     feeds PerfModel's bandwidth EMA. Per-priority stats are kept both
//     globally and per tenant (tenant_stats()), symmetrically, so a
//     single-tenant scheduler's tenant-0 stats equal its global stats.
#pragma once

#include <array>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "io/io_channel.hpp"
#include "io/io_request.hpp"
#include "tiers/failstop_tier.hpp"
#include "util/mutex.hpp"
#include "util/sim_clock.hpp"

namespace mlpo {

class IoScheduler {
 public:
  struct Config {
    /// Max queued requests per tenant per channel before submit() blocks.
    /// (With one tenant this is exactly the old per-channel bound.)
    std::size_t queue_depth = 64;
    /// Hold the path's per-direction TierLock across each dispatched
    /// request (paper §3.2 process-exclusive concurrency control).
    bool tier_exclusive_locking = true;
    /// Lock-ownership key of the worker this scheduler serves.
    int worker_id = 0;
    /// Ignore priority classes and dispatch in arrival order (the flat
    /// FIFO baseline, for ablations and the scheduler bench).
    bool strict_fifo = false;
    /// Fair-share weights by tenant id; absent tenants weigh 1. A tenant
    /// of weight w earns w quanta of byte credit per DRR visit, so its
    /// long-run share of a saturated channel approaches w / sum(weights).
    std::map<u32, u32> tenant_weights;
    /// Bytes of DRR credit per visit per unit weight. Larger quanta lower
    /// switching overhead; smaller quanta tighten short-term fairness.
    u64 fair_share_quantum_bytes = 1 << 20;
    /// Bandwidth of each PCIe link, D2H and H2D, in bytes per virtual
    /// second. The scheduler owns one RateLimiter per link at this rate, so
    /// the two directions never share a channel. 0 = instantaneous links.
    f64 link_bandwidth = 0;
  };

  /// Cumulative counters; snapshot via stats(). Virtual-time seconds.
  struct PriorityStats {
    u64 submitted = 0;
    u64 completed = 0;  ///< ran to completion (successfully)
    u64 failed = 0;     ///< threw; exception travels through the future
    u64 cancelled = 0;  ///< dropped while queued
    u64 sim_bytes = 0;
    f64 queue_wait_seconds = 0;
    f64 service_seconds = 0;
  };
  struct Stats {
    std::array<PriorityStats, kIoPriorityCount> priority{};
    // Always zero: the scheduler dispatches one request at a time and no
    // longer merges small transfers. Kept only because the repo benchmark
    // (benchmark/src/workloads.cpp) still reads them; remove them together
    // with that reader in the next change to the benchmark.
    u64 coalesced_batches = 0;
    u64 coalesced_requests = 0;
    u64 max_queue_depth = 0;  ///< high-water mark across channels
  };

  /// Channels: read+write per `vtier` path (a null vtier leaves only the
  /// link and external channels), the D2H and H2D links at
  /// Config::link_bandwidth, and external channels — one per distinct
  /// foreign StorageTier (created on first use, so two DiskOffloaders over
  /// different devices keep overlapping) plus a default one for tier-less
  /// external work. Throws std::invalid_argument for a zero queue_depth or
  /// fair_share_quantum_bytes. (`cfg` has no default argument: C++ cannot
  /// value-initialise a nested class with default member initialisers in
  /// a default argument of its enclosing class; pass `{}` instead.)
  IoScheduler(const SimClock& clock, VirtualTier* vtier, Config cfg);

  ~IoScheduler();

  IoScheduler(const IoScheduler&) = delete;
  IoScheduler& operator=(const IoScheduler&) = delete;

  /// Route `req` to its channel queue and return the completion future.
  /// Blocks while the request's tenant is at Config::queue_depth on that
  /// channel. Failures (and cancellation, as IoCancelled) travel through
  /// the future; a failed tenant's submission settles with FailStopError.
  std::future<void> submit(IoRequest req);

  /// Block until every submitted request has settled.
  void drain();

  /// Block until every request submitted by `tenant` has settled. Unlike
  /// drain(), convergence does not depend on other tenants going quiet, so
  /// one job's teardown cannot livelock behind its neighbours' traffic.
  void drain_tenant(u32 tenant);

  /// Cancel the requests still queued (not yet dispatched) that match
  /// `priority` and `tenant` — an empty filter matches everything — by
  /// cancelling their tokens; each drops at dispatch, failing its future
  /// with IoCancelled. In-flight requests are untouched (a dispatched NVMe
  /// command cannot be recalled) and later submissions are unaffected.
  /// Returns the number of requests newly flagged. Callers:
  ///   * the RecoveryDriver abandons a fail-stopped node's queued traffic
  ///     (each worker's tenant, on an owned or a shared scheduler), so it
  ///     never dispatches serially against a dead device;
  ///   * the offload engine's failure path abandons its queued demand
  ///     reads (re-fetchable, so always safe) but no writes, which may
  ///     carry not-yet-persisted state.
  std::size_t cancel_queued(std::optional<IoPriority> priority = {},
                            std::optional<u32> tenant = {});

  /// The fail-stop latch of `tenant`, created alive on first use and kept
  /// for the scheduler's lifetime (the reference stays valid). Kill or arm
  /// it to fail-stop the tenant alone; submit() reads it once per request.
  FailStopLatch& tenant_latch(u32 tenant);

  Stats stats() const;
  /// Per-tenant slice of stats(); zeroes for an unseen tenant.
  /// max_queue_depth is the tenant's own queue high-water mark.
  Stats tenant_stats(u32 tenant) const;
  const Config& config() const { return cfg_; }

  // Channel-queue addressing (mainly for tests and diagnostics).
  std::size_t queue_count() const { return queues_.size(); }
  std::size_t tier_path_count() const { return tier_paths_; }
  std::size_t read_queue(std::size_t path) const { return 2 * path; }
  std::size_t write_queue(std::size_t path) const { return 2 * path + 1; }
  std::size_t d2h_queue() const { return 2 * tier_paths_; }
  std::size_t h2d_queue() const { return 2 * tier_paths_ + 1; }
  /// Default external channel (tier-less external requests). Requests
  /// naming a StorageTier dispatch on that tier's own lazily-created
  /// channel instead.
  std::size_t external_queue() const { return 2 * tier_paths_ + 2; }
  /// Currently queued (not yet dispatched) requests on one channel queue.
  std::size_t queued(std::size_t queue_idx) const;

 private:
  struct Pending {
    IoRequest req;
    std::promise<void> done;
    f64 enqueue_vtime = 0;
    /// The submitting tenant's latch, looked up once in submit().
    const FailStopLatch* latch = nullptr;
  };

  /// One tenant's backlog on one channel: the per-priority deques plus the
  /// tenant's DRR byte credit. Entries are created on first use and erased
  /// when the tenant's backlog on the channel drains (so the common
  /// single-tenant case never iterates ghosts).
  struct TenantQueues {
    std::array<std::deque<std::unique_ptr<Pending>>, kIoPriorityCount>
        classes;
    std::size_t size = 0;
    i64 deficit_bytes = 0;
  };

  using TenantMap = std::map<u32, TenantQueues>;

  struct ChannelQueue {
    explicit ChannelQueue(IoChannel chan) : channel(std::move(chan)) {}
    IoChannel channel;
    mutable Mutex mutex;
    CondVar not_empty;
    CondVar not_full;
    TenantMap tenants MLPO_GUARDED_BY(mutex);
    std::size_t size MLPO_GUARDED_BY(mutex) = 0;
    /// Tenant id served by the last DRR decision; the next round starts
    /// strictly after it (cyclically), so service rotates.
    u32 drr_cursor MLPO_GUARDED_BY(mutex) = 0;
    std::thread worker;
  };

  ChannelQueue& route(const IoRequest& req);
  ChannelQueue& external_channel_for(StorageTier* tier);
  void settle(Pending& pending, std::exception_ptr error);
  std::size_t class_of(const IoRequest& req) const;
  u32 weight_of(u32 tenant) const;
  static u64 effective_bytes(const IoRequest& req);
  u64 execute(IoRequest& req, IoChannel& channel);
  void dispatch_loop(ChannelQueue& q);
  /// Pick the tenant the next request dispatches from (backlogged entry of
  /// q.tenants). Requires q.mutex; q.size must be > 0.
  TenantMap::iterator pick_tenant(ChannelQueue& q) MLPO_REQUIRES(q.mutex);
  /// Dispatch one popped request: settle it cancelled or fail-stopped
  /// without touching the lock, else run it under a channel lease.
  void run_one(ChannelQueue& q, std::unique_ptr<Pending> p);
  /// The one completion path for a dispatched request, inline or from an
  /// async backend's completion thread: fold its times and outcome into
  /// the global and tenant stats (failed requests still waited and held
  /// the channel, so their times count too), run on_complete on success
  /// (a throwing hook fails the future, but the transfer stays counted
  /// completed), then settle and count it settled.
  void complete(Pending& pending, f64 queue_wait, f64 service, u64 moved,
                std::exception_ptr error);
  void finish_one(u32 tenant);

  const SimClock* clock_;
  VirtualTier* vtier_;
  Config cfg_;
  /// Null when Config::link_bandwidth is 0 (instantaneous links).
  std::unique_ptr<RateLimiter> d2h_;
  std::unique_ptr<RateLimiter> h2d_;
  std::size_t tier_paths_ = 0;
  std::vector<std::unique_ptr<ChannelQueue>> queues_;
  /// Lazily-created channels for foreign tiers, keyed by tier identity.
  Mutex external_mutex_;
  std::unordered_map<StorageTier*, std::unique_ptr<ChannelQueue>>
      tier_queues_ MLPO_GUARDED_BY(external_mutex_);
  std::atomic<bool> closed_{false};

  mutable Mutex stats_mutex_;
  Stats stats_ MLPO_GUARDED_BY(stats_mutex_);
  std::map<u32, Stats> tenant_stats_ MLPO_GUARDED_BY(stats_mutex_);

  /// Fail-stop latch per tenant; entries are never erased.
  Mutex tenant_latch_mutex_;
  std::map<u32, FailStopLatch> tenant_latches_
      MLPO_GUARDED_BY(tenant_latch_mutex_);

  std::atomic<u64> submitted_{0};
  std::atomic<u64> settled_{0};
  Mutex drain_mutex_;
  CondVar drain_cv_;
  std::map<u32, u64> tenant_submitted_ MLPO_GUARDED_BY(drain_mutex_);
  std::map<u32, u64> tenant_settled_ MLPO_GUARDED_BY(drain_mutex_);

  // Every exception_ptr settled into a future is also pinned here until
  // the scheduler is destroyed (see settle for why). One pointer
  // per FAILED request — the success path retains nothing — so the cost
  // is bounded by the number of failures/cancellations in the
  // scheduler's lifetime, which are exceptional by construction.
  Mutex retired_mutex_;
  std::vector<std::exception_ptr> retired_errors_
      MLPO_GUARDED_BY(retired_mutex_);
};

}  // namespace mlpo
