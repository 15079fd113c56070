#include "util/fp16.hpp"

#include <bit>
#include <stdexcept>

#include "util/kernel_dispatch.hpp"

namespace mlpo {

namespace {

// Both codecs are straight-line integer and float arithmetic: every case is
// computed and the result is picked with all-ones/all-zeros masks. GCC keeps
// `?:` and `if` as control flow here and then refuses to vectorise the bulk
// loops, so no branch or conditional operator may appear below. Unsigned
// wrap-around in the lanes that a mask discards is intended.

/// All-ones when `cond` holds, zero otherwise.
inline u32 mask_if(bool cond) { return 0u - static_cast<u32>(cond); }

// Decode by magic-subtract renormalisation. Shifting the half's exponent and
// mantissa into float position and re-biasing the exponent is exact for
// normals. Inf/NaN need the exponent pushed to 255 (the payload rides
// along). A zero/subnormal half m * 2^-24 is built as the float
// 2^-14 * (1 + m/1024) and then 2^-14 is subtracted, which is exact.
inline f32 decode_bits(u16 h) {
  constexpr u32 kShiftedExp = 0x7C00u << 13;
  constexpr f32 kMagic = 0x1.0p-14f;  // the float with biased exponent 113
  const u32 in = h;
  const u32 bits = (in & 0x7FFFu) << 13;
  const u32 exp = bits & kShiftedExp;
  const u32 normal = bits + ((127u - 15u) << 23);
  const u32 inf_nan = normal + ((128u - 16u) << 23);
  const u32 subnormal =
      std::bit_cast<u32>(std::bit_cast<f32>(normal + (1u << 23)) - kMagic);
  const u32 is_inf_nan = mask_if(exp == kShiftedExp);
  const u32 is_subnormal = mask_if(exp == 0);
  const u32 out = (inf_nan & is_inf_nan) | (subnormal & is_subnormal) |
                  (normal & ~(is_inf_nan | is_subnormal));
  return std::bit_cast<f32>(out | ((in & 0x8000u) << 16));
}

// Encode with round-to-nearest-even.
//   * |x| >= 2^16 (exponent would reach 31) overflows to inf; an input NaN
//     becomes a quiet NaN that keeps the top 10 payload bits.
//   * |x| < 2^-14 gives a zero or subnormal half: adding 0.5f aligns the
//     half's 2^-24 grid with the float's last mantissa bit, so the hardware
//     add does the round-to-nearest-even and the mantissa bits of the sum
//     minus those of 0.5f are the half's bits (0x400 when it rounds up to
//     the smallest normal). This relies on the default rounding mode and on
//     denormals not being flushed, as everywhere else in the library.
//   * Otherwise re-bias the exponent and round on the 13 dropped bits by
//     adding 0xFFF plus the kept LSB; a carry into the exponent is exactly
//     the desired rounding up to the next binade or to infinity.
inline u16 encode_bits(f32 value) {
  constexpr i32 kF16Overflow = (127 + 16) << 23;
  constexpr i32 kF32Inf = 0xFF << 23;
  constexpr i32 kMinNormal = (127 - 14) << 23;
  constexpr f32 kDenormMagic = 0.5f;
  const u32 f = std::bit_cast<u32>(value);
  const u32 sign = (f >> 16) & 0x8000u;
  const u32 a = f & 0x7FFFFFFFu;
  // |x|'s bits fit in i32, so signed compares are exact here; SSE2 only
  // has signed vector compares, so unsigned ones would cost a bias each.
  const i32 sa = static_cast<i32>(a);

  const u32 subnormal =
      std::bit_cast<u32>(std::bit_cast<f32>(a) + kDenormMagic) -
      std::bit_cast<u32>(kDenormMagic);
  const u32 normal =
      (a - ((127u - 15u) << 23) + 0xFFFu + ((a >> 13) & 1u)) >> 13;
  const u32 is_nan = mask_if(sa > kF32Inf);
  const u32 inf_nan = 0x7C00u | (is_nan & (0x200u | ((a >> 13) & 0x3FFu)));

  const u32 is_subnormal = mask_if(sa < kMinNormal);
  const u32 is_overflow = mask_if(sa >= kF16Overflow);
  const u32 out = (subnormal & is_subnormal) | (inf_nan & is_overflow) |
                  (normal & ~(is_subnormal | is_overflow));
  return static_cast<u16>(out | sign);
}

}  // namespace

u16 Fp16::encode(f32 value) { return encode_bits(value); }
f32 Fp16::decode(u16 bits) { return decode_bits(bits); }

MLPO_KERNEL_CLONES void fp32_to_fp16(std::span<const f32> src,
                                     std::span<u16> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("fp32_to_fp16: size mismatch");
  }
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] = encode_bits(src[i]);
}

MLPO_KERNEL_CLONES void fp16_to_fp32(std::span<const u16> src,
                                     std::span<f32> dst) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("fp16_to_fp32: size mismatch");
  }
  const std::size_t n = src.size();
  for (std::size_t i = 0; i < n; ++i) dst[i] = decode_bits(src[i]);
}

}  // namespace mlpo
