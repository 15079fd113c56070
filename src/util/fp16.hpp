// Software IEEE-754 binary16 ("half") support.
//
// Mixed-precision training keeps two copies of the model: FP16 for the
// forward/backward passes and FP32 master weights for the optimizer. The
// offloading engine therefore needs fast, correct FP16<->FP32 conversion
// kernels (paper §3.2, "delayed in-place mixed-precision gradient
// conversion"). We implement binary16 in software so the library has no
// hardware half-float dependency. Both codecs are branch-free, so the bulk
// kernels auto-vectorise on the baseline x86-64 ISA (SSE2); tests/fp16_test
// checks them bit for bit against a scalar oracle over every input.
#pragma once

#include <cstring>
#include <span>

#include "util/common.hpp"

namespace mlpo {

/// Bit-level IEEE-754 binary16 value. Round-to-nearest-even on conversion
/// from float; overflow saturates to +/-inf like hardware F16C does.
class Fp16 {
 public:
  Fp16() = default;
  explicit Fp16(f32 value) : bits_(encode(value)) {}

  /// Reinterpret raw bits as a half value.
  static Fp16 from_bits(u16 bits) {
    Fp16 h;
    h.bits_ = bits;
    return h;
  }

  u16 bits() const { return bits_; }
  f32 to_f32() const { return decode(bits_); }

  bool is_nan() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) != 0;
  }
  bool is_inf() const {
    return (bits_ & 0x7C00u) == 0x7C00u && (bits_ & 0x03FFu) == 0;
  }

  /// Encode a float to binary16 bits (round-to-nearest-even).
  static u16 encode(f32 value);
  /// Decode binary16 bits to float (exact).
  static f32 decode(u16 bits);

 private:
  u16 bits_ = 0;
};

/// Bulk FP32 -> FP16 conversion ("downscale"), bit-identical to
/// Fp16::encode per element. Throws std::invalid_argument unless dst and
/// src have equal length.
void fp32_to_fp16(std::span<const f32> src, std::span<u16> dst);

/// Bulk FP16 -> FP32 conversion ("upscale"), bit-identical to Fp16::decode
/// per element. Throws std::invalid_argument unless dst and src have equal
/// length.
void fp16_to_fp32(std::span<const u16> src, std::span<f32> dst);

}  // namespace mlpo
