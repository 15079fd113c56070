// Deterministic synthetic gradient generator — the stand-in for the real
// backward pass, which this library does not compute (README.md: the
// scaled-time emulation in the introduction; "Host kernels" for how fast
// the generator runs and how its bits are pinned).
//
// Properties the engines rely on:
//   * deterministic in (rank, subgroup id, iteration, element index), so the
//     baseline and MLP-Offload engines consume *identical* gradients no
//     matter in which order they process subgroups — the foundation of the
//     bitwise-equivalence tests;
//   * values are exactly representable in FP16 (they are produced by
//     encoding to FP16 first), so FP16 transport is lossless by
//     construction and reorder-equivalence is exact.
#pragma once

#include <span>

#include "util/common.hpp"

namespace mlpo {

/// Element j of `out` gets splitmix64(first + j) mapped uniformly onto
/// [-0.02, 0.02], small centred values fit for exercising the optimizer.
/// GradSource rounds them to FP16; Subgroup::deterministic_param_init uses
/// them as they are.
void hash_to_floats(u64 first, std::span<f32> out);

class GradSource {
 public:
  explicit GradSource(u64 seed = 0x5EEDF00Dull) : seed_(seed) {}

  /// Fill `out` with FP16 gradient bits for the given coordinates.
  void generate_fp16(int rank, u32 subgroup_id, u64 iteration,
                     std::span<u16> out) const;

  /// Convenience: same values upscaled to FP32 (bit-exact with upscaling
  /// the FP16 output).
  void generate_fp32(int rank, u32 subgroup_id, u64 iteration,
                     std::span<f32> out) const;

 private:
  u64 seed_;
};

}  // namespace mlpo
