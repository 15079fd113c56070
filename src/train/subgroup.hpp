// Optimizer-state subgroups — the unit of offloading.
//
// DeepSpeed ZeRO-3 shards each rank's optimizer state into fixed-size
// "subgroups" of M parameters (paper §2); MLP-Offload moves whole subgroups
// between host memory and third-level storage. A subgroup carries the FP32
// master parameters, Adam momentum and variance (12 bytes/param on tiers).
//
// Scale reduction: a subgroup representing `sim_params` simulated parameters
// allocates only `sim_params / elem_scale` real floats. All numeric kernels
// run on the real floats; all I/O timing charges the simulated byte count.
// With elem_scale == 1 the subgroup is a full-fidelity optimizer shard.
//
// Memory: a subgroup is one contiguous image, byte for byte what a tier
// stores for it:
//
//   [ 32-byte header | params | momentum | variance ]   (FP32 arrays)
//
// The header holds magic, id, sim_params, elem_scale and the Adam step, so
// step() reads the header and a tier read straight into image() restores
// the step together with the arrays. params()/momentum()/variance() are
// subspans of the image. Fetches and flushes therefore move the image
// itself, with no staging copy; serialize()/deserialize() copy it for the
// callers that need a detached buffer (checkpoints, restore).
//
// Ownership: the Engine base carves all of its subgroups' images out of
// one pre-faulted slab and passes each its span (the borrowing
// constructor); the slab outlives the subgroups. Any other Subgroup — one
// built from its geometry alone, or a copy such as snapshot_subgroup()'s —
// owns its image.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "util/common.hpp"

namespace mlpo {

class Subgroup {
 public:
  /// Bytes of the image header that precedes the three FP32 arrays.
  static constexpr std::size_t kHeaderBytes = 32;

  /// Image size of a subgroup with this geometry: header + 3 FP32 arrays.
  /// Throws std::invalid_argument for a zero sim_params or elem_scale.
  static u64 image_bytes(u64 sim_params, u64 elem_scale);

  /// A subgroup owning a fresh zeroed image.
  /// @param sim_params simulated parameter count (e.g. 100e6)
  /// @param elem_scale simulated params per real element (>= 1)
  Subgroup(u32 id, u64 sim_params, u64 elem_scale = 1);

  /// A subgroup living in `image`, which must be exactly image_bytes()
  /// long, zero-filled, aligned for f32, and outlive the subgroup.
  Subgroup(u32 id, u64 sim_params, u64 elem_scale, std::span<u8> image);

  /// A copy owns its image, whoever owned the original's.
  Subgroup(const Subgroup& other);
  Subgroup(Subgroup&& other) noexcept = default;
  Subgroup& operator=(const Subgroup&) = delete;
  Subgroup& operator=(Subgroup&&) = delete;

  u32 id() const { return id_; }
  u64 sim_params() const { return sim_params_; }
  u64 elem_scale() const { return elem_scale_; }
  u64 real_elems() const { return real_elems_; }
  u32 step() const;
  void set_step(u32 s);

  std::span<f32> params() { return array(0); }
  std::span<f32> momentum() { return array(1); }
  std::span<f32> variance() { return array(2); }
  std::span<const f32> params() const { return array(0); }
  std::span<const f32> momentum() const { return array(1); }
  std::span<const f32> variance() const { return array(2); }

  /// params, momentum and variance as one contiguous FP32 block (the
  /// image minus its header).
  std::span<f32> state() { return {floats(), 3 * real_elems_}; }

  /// The whole image: what a tier stores for this subgroup.
  std::span<u8> image() { return image_; }
  std::span<const u8> image() const { return image_; }

  /// Simulated bytes of optimizer state (P+M+V in FP32) — what a tier
  /// transfer of this subgroup costs, paper's 12 B/param payload.
  u64 sim_state_bytes() const { return sim_params_ * kOptimStateBytesPerParam; }

  /// Simulated FP16 parameter bytes (what H2D pushes back to the GPU).
  u64 sim_fp16_param_bytes() const { return sim_params_ * kFp16Bytes; }

  /// Serialized (real) size in bytes: the image size.
  u64 serialized_bytes() const { return image_.size(); }

  /// Copy the image into `out` (must be exactly serialized_bytes()).
  void serialize(std::span<u8> out) const;

  /// Overwrite this subgroup's state from `in`; id/sim_params/elem_scale in
  /// the header must match (guards against cross-subgroup corruption). A
  /// rejected image leaves the subgroup untouched.
  void deserialize(std::span<const u8> in);

  /// After a transfer wrote a tier object straight into image(): throw
  /// std::runtime_error ("header mismatch") unless its header names this
  /// subgroup. On a mismatch the header is first rewritten to this
  /// subgroup's identity at `prior_step` (the step before the transfer),
  /// so id() and step() stay what they were.
  void check_loaded_header(u32 prior_step);

  /// Order-independent content hash for correctness tests.
  u64 checksum() const;

  /// Storage key used on tiers: "sg/<rank>/<id>".
  static std::string key(int rank, u32 id);

  /// Deterministic parameter initialisation: small centred values keyed on
  /// (rank, id) only — identical for every engine implementation and
  /// policy configuration, so end-state digests are comparable across the
  /// whole equivalence grid.
  static void deterministic_param_init(int rank, u32 id,
                                       std::span<f32> params);

 private:
  f32* floats() const {
    return reinterpret_cast<f32*>(image_.data() + kHeaderBytes);
  }
  std::span<f32> array(std::size_t i) const {
    return {floats() + i * real_elems_, real_elems_};
  }
  void write_header(u32 step);

  u32 id_;
  u64 sim_params_;
  u64 elem_scale_;
  u64 real_elems_;
  std::unique_ptr<u8[]> owned_;  ///< null when the image is borrowed
  std::span<u8> image_;
};

}  // namespace mlpo
