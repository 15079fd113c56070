// TensorNVMe/Colossal-AI integration engine (paper §3.5): "the core
// principles of MLP-Offload make it extensible to other training runtimes,
// such as TensorNVMe in Colossal-AI, by specifying multiple DiskOffloader
// objects to create the virtual third-level tier, on each of which the
// corresponding subgroups dictated by our performance model can be
// offloaded."
//
// This engine is exactly that recipe behind the unified Engine interface:
// one DiskOffloader per storage path, the placement policy deciding which
// offloader holds which subgroup, and TensorNVMe's per-tensor
// async_write / async_read / synchronize discipline instead of
// OffloadEngine's prefetch pipeline. Fetches are synchronous per tensor
// (the facade's simplicity is the point); write-back stays asynchronous and
// drains at the end of the update phase. The tensor an offloader moves is
// the subgroup's own [params|momentum|variance] block (Subgroup::state()),
// read and written in place: the subgroup images outlive every pending
// write, which is TensorNVMe's span contract — so every path that leaves
// update_phase, and the destructor, first lets every offloader settle.
// Numerically it is bit-identical to the other engines — the equivalence
// suite holds it to that.
#pragma once

#include <memory>
#include <vector>

#include "core/disk_offloader.hpp"
#include "core/engine.hpp"
#include "tiers/virtual_tier.hpp"

namespace mlpo {

class TensorNvmeEngine final : public TieredEngine {
 public:
  TensorNvmeEngine(const EngineContext& ctx, const EngineOptions& opts,
                   const ShardLayout& layout);
  /// Lets every offloader's outstanding writes settle: they read the
  /// subgroup images.
  ~TensorNvmeEngine() override;

  Distribution distribution() const override;
  /// The working copies live in host buffers (TensorNVMe's model), but the
  /// authoritative state is on the offloaders — nothing is "cached".
  std::vector<u32> host_resident() const override { return {}; }
  bool on_persistent_path(u32 id) const override;
  void restore_state(u32 id, std::span<const u8> serialized) override;

 private:
  std::future<void> store_initial_state(u32 id) override;
  void update_phase(u64 iteration, IterationReport& report) override;

  std::string state_key(u32 id) const;
  /// Write subgroup `id`'s tensor — its P/M/V block, read in place — to
  /// the offloader the placement policy currently assigns it, recording
  /// that location for later reads.
  std::future<void> write_through(u32 id);
  /// synchronize() every offloader, even past one that throws, then
  /// rethrow the first failure: stopping at the first would leave the
  /// others' writes in flight and their failed futures pending.
  void synchronize_all();

  /// One per usable VirtualTier path; placement indexes into this.
  std::vector<std::unique_ptr<DiskOffloader>> offloaders_;
  /// Offloader (== usable path) each subgroup's tensor was last written
  /// to. Reads must use this, not the live policy: a rebalance() between
  /// write and read may move the *assignment* while the bytes stay put.
  std::vector<std::size_t> stored_path_;
};

}  // namespace mlpo
