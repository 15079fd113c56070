#include "core/checkpoint.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "io/io_batch.hpp"
#include "io/io_scheduler.hpp"

namespace mlpo {

namespace {

std::string ckpt_key(const Engine& engine, u32 id) {
  // Elastic layouts key checkpoint objects by *global* subgroup id: the
  // decomposition is world-size independent, so a snapshot written under
  // one node count restores under another (the sharding remap simply hands
  // each gid to whichever rank now owns it). Classic layouts keep the
  // per-rank keyspace.
  const ShardLayout& layout = engine.layout();
  if (layout.elastic()) {
    return "ckpt/g/" + std::to_string(layout.global_id(id));
  }
  return "ckpt/" + std::to_string(engine.rank()) + "/" + std::to_string(id);
}

}  // namespace

CheckpointReport checkpoint_prestage(Engine& engine, StorageTier& store) {
  CheckpointReport report;
  const f64 start = engine.clock().now();

  // All checkpoint traffic rides the scheduler's external channel at
  // kCheckpoint priority: it never preempts demand fetches or gradient
  // deposits. Engines without a scheduler (cpu_only) write synchronously.
  IoScheduler* io = engine.io();
  IoBatch batch;
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    const Subgroup snapshot = engine.snapshot_subgroup(id);
    const u64 sim = snapshot.sim_state_bytes();
    report.total_sim_bytes += sim;

    auto buf = std::make_shared<std::vector<u8>>(snapshot.serialized_bytes());
    snapshot.serialize(*buf);
    const std::string key = ckpt_key(engine, id);
    u64 sim_bytes;
    if (engine.on_persistent_path(id)) {
      // Already durable where it lives: snapshot it in place (a server-side
      // copy / object clone on the PFS) so later training cannot overwrite
      // the checkpointed version. No client-network bytes are charged —
      // that is exactly the pre-staging saving.
      sim_bytes = 1;
      report.prestaged_sim_bytes += sim;
    } else {
      sim_bytes = sim;
      report.flushed_sim_bytes += sim;
    }
    if (io == nullptr) {
      store.write(key, *buf, sim_bytes);
      continue;
    }
    IoRequest req = IoRequest::external_op(IoOp::kWrite, &store, key,
                                           sim_bytes,
                                           IoPriority::kCheckpoint);
    req.tenant = engine.tenant();
    req.work = [&store, buf, key, sim_bytes](IoChannel&) -> u64 {
      store.write(key, *buf, sim_bytes);
      return sim_bytes;
    };
    batch.add(io->submit(std::move(req)));
  }
  batch.wait_all();
  report.seconds = engine.clock().now() - start;
  return report;
}

u32 checkpoint_restore(Engine& engine, StorageTier& store) {
  IoScheduler* io = engine.io();
  u32 from_store = 0;
  // Store reads are submitted in one pass and collected in a second, like
  // prestage's batched writes: restore sits on the recovery hot path, and
  // serial per-subgroup round-trips would inflate the measured recovery
  // cost past what the scheduler can actually deliver.
  struct PendingLoad {
    u32 id;
    /// Shared with the request's work closure, so the buffer outlives the
    /// dispatch even if an exception unwinds this frame mid-submission.
    std::shared_ptr<std::vector<u8>> buf;
    std::future<void> done;
  };
  std::vector<PendingLoad> loads;
  for (u32 id = 0; id < engine.num_subgroups(); ++id) {
    const std::string key = ckpt_key(engine, id);
    if (store.exists(key)) {
      // Restoring is charged like the flush that wrote the object: the
      // subgroup's full simulated footprint (never less than the real
      // serialized object — at elem_scale > 1 the real image understates
      // the transfer). sim_bytes=0 here would bill the restore path zero
      // virtual I/O time while prestage bills full bytes, making
      // checkpoint-interval-vs-recovery-cost tradeoffs unmeasurable.
      const u64 sim_bytes =
          std::max<u64>(store.object_size(key),
                        engine.layout().subgroup_sizes.at(id) *
                            kOptimStateBytesPerParam);
      auto buf = std::make_shared<std::vector<u8>>(store.object_size(key));
      if (io == nullptr) {
        store.read(key, *buf, sim_bytes);
        engine.restore_state(id, *buf);
      } else {
        IoRequest req = IoRequest::external_op(IoOp::kRead, &store, key,
                                               sim_bytes,
                                               IoPriority::kCheckpoint);
        req.tenant = engine.tenant();
        req.work = [&store, buf, key, sim_bytes](IoChannel&) -> u64 {
          store.read(key, *buf, sim_bytes);
          return sim_bytes;
        };
        auto done = io->submit(std::move(req));
        loads.push_back({id, std::move(buf), std::move(done)});
      }
      ++from_store;
      continue;
    }
    // Pre-staged at checkpoint time: the persistent tier copy *is* the
    // checkpoint. It must still be there and still persistent. Note this
    // branch is a safety net for stores that really skipped the object
    // (e.g. an external pre-stage-aware checkpoint service):
    // checkpoint_prestage itself snapshots even pre-staged subgroups into
    // the store (at ~zero simulated cost), and restore prefers that copy
    // deliberately — the live tier copy may have been overwritten by
    // training after the snapshot, so it is only trustworthy when the
    // store has nothing.
    if (!engine.on_persistent_path(id)) {
      throw std::runtime_error(
          "checkpoint_restore: subgroup " + std::to_string(id) +
          " is neither in the checkpoint store nor on a persistent path");
    }
    // Re-anchor the host view: the tier copy is authoritative. Loading it
    // through restore_state also normalises the placement bookkeeping.
    const Subgroup snapshot = engine.snapshot_subgroup(id);
    std::vector<u8> buf(snapshot.serialized_bytes());
    snapshot.serialize(buf);
    engine.restore_state(id, buf);
  }

  // Collect the in-flight store reads; the shared buffers make an early
  // unwind safe, but every failure is still surfaced (first error wins).
  std::exception_ptr error;
  for (auto& load : loads) {
    try {
      load.done.get();
      if (!error) engine.restore_state(load.id, *load.buf);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return from_store;
}

}  // namespace mlpo
