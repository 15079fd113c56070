// Host-side FP16 gradient accumulation buffer.
//
// The host reserves room for the FP16 gradients of *all* subgroups to
// support gradient accumulation (paper §3.2) — MLP-Offload piggybacks on
// this buffer to avoid ever flushing gradients to third-level storage: the
// backward pass deposits FP16 gradients here, accumulation sums across
// micro-batches, and the update phase upscales in place.
//
// Accumulation is performed in FP32 and re-encoded to FP16 storage, the
// standard loss-scale-free behaviour for an FP16 master gradient buffer.
#pragma once

#include <span>
#include <vector>

#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {

class GradAccumulator {
 public:
  /// @param subgroup_real_elems real (scale-reduced) element count per
  ///        subgroup buffer. One FP16 buffer is allocated per subgroup up
  ///        front, mirroring the host reservation the paper describes.
  GradAccumulator(u32 num_subgroups, u64 subgroup_real_elems);

  /// Variant for ZeRO-3 layouts where the last subgroup is a remainder:
  /// one buffer per entry, individually sized.
  explicit GradAccumulator(const std::vector<u64>& elems_per_subgroup);

  u32 num_subgroups() const { return static_cast<u32>(buffers_.size()); }
  u64 elems(u32 id) const { return buffers_.at(id).size(); }

  /// Overwrite subgroup `id`'s buffer (first micro-batch of an accumulation
  /// window).
  void store(u32 id, std::span<const u16> grads_fp16);

  /// Add `grads_fp16` into subgroup `id`'s buffer (subsequent micro-batches).
  void accumulate(u32 id, std::span<const u16> grads_fp16,
                  ThreadPool* pool = nullptr);

  /// FP16 view of the accumulated gradients for subgroup `id`.
  std::span<const u16> fp16(u32 id) const;
  /// Writable view of subgroup `id`'s buffer: a first micro-step may
  /// produce its gradients here directly instead of through store().
  std::span<u16> fp16(u32 id);

  /// Upscale subgroup `id`'s accumulated gradients into `out` (the delayed
  /// in-place conversion of paper §3.2).
  void upscale_into(u32 id, std::span<f32> out, ThreadPool* pool = nullptr) const;

  /// Zero every buffer (after the update phase consumes the gradients).
  void reset();

 private:
  std::vector<std::vector<u16>> buffers_;
};

}  // namespace mlpo
