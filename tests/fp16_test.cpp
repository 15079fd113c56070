// FP16 software implementation: the branch-free codec against a scalar
// oracle over every input, exhaustive decode/encode roundtrip over the full
// 16-bit space, rounding behaviour, special values, and bulk kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/fp16.hpp"
#include "util/thread_pool.hpp"

namespace mlpo {
namespace {

// ---------------------------------------------------------------------------
// Oracle: the straightforward scalar, branchy codec the library shipped
// before its kernels were made branch-free. The library must match it bit
// for bit, signed zeros and NaN payloads included.

f32 oracle_decode(u16 h) {
  const u32 sign = static_cast<u32>(h & 0x8000u) << 16;
  const u32 exp = (h >> 10) & 0x1Fu;
  const u32 man = h & 0x3FFu;

  u32 out;
  if (exp == 0) {
    if (man == 0) {
      out = sign;  // +/- zero
    } else {
      // Subnormal: value = man * 2^-24. Normalise.
      u32 e = 0;
      u32 m = man;
      while ((m & 0x400u) == 0) {
        m <<= 1;
        ++e;
      }
      m &= 0x3FFu;
      out = sign | ((127 - 15 - e + 1) << 23) | (m << 13);
    }
  } else if (exp == 0x1Fu) {
    out = sign | 0x7F800000u | (man << 13);  // inf / nan (payload preserved)
  } else {
    out = sign | ((exp - 15 + 127) << 23) | (man << 13);
  }
  return std::bit_cast<f32>(out);
}

u16 oracle_encode(f32 value) {
  const u32 f = std::bit_cast<u32>(value);
  const u32 sign = (f >> 16) & 0x8000u;
  const u32 exp = (f >> 23) & 0xFFu;
  const u32 man = f & 0x7FFFFFu;

  if (exp == 0xFFu) {
    // Inf or NaN. Keep a non-zero mantissa for NaN (quiet bit set).
    const u16 nan_man = man ? static_cast<u16>((man >> 13) | 0x200u) : 0;
    return static_cast<u16>(sign | 0x7C00u | nan_man);
  }

  // Re-bias exponent: binary32 bias 127 -> binary16 bias 15.
  const i32 e = static_cast<i32>(exp) - 127 + 15;
  if (e >= 0x1F) {
    return static_cast<u16>(sign | 0x7C00u);  // overflow -> inf
  }
  if (e <= 0) {
    // Subnormal half (or underflow to zero). The implicit leading 1 of the
    // binary32 mantissa becomes explicit, then shift right by (1 - e).
    if (e < -10) return static_cast<u16>(sign);  // too small, round to zero
    const u32 full = man | 0x800000u;
    const u32 shift = static_cast<u32>(14 - e);  // 13 + (1 - e)
    u32 half_man = full >> shift;
    // Round to nearest even using the bits shifted out.
    const u32 rem = full & ((1u << shift) - 1);
    const u32 halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half_man & 1u))) ++half_man;
    return static_cast<u16>(sign | half_man);
  }

  u32 half = sign | (static_cast<u32>(e) << 10) | (man >> 13);
  // Round to nearest even on the 13 dropped mantissa bits; carry may
  // propagate into the exponent (rounding up to the next binade or to inf).
  const u32 rem = man & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1u))) ++half;
  return static_cast<u16>(half);
}

// Optimised builds sweep all 2^32 encode inputs in a few seconds across a
// ThreadPool. Unoptimised and sanitizer builds are 10-50x slower, so they
// check a fixed stride plus every exponent boundary instead.
constexpr bool kExhaustiveEncode =
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

// Encode every float whose bits are in [begin, end) through the bulk
// kernel and compare with the oracle. Returns the number of mismatches and
// stores the first mismatching input in `first_bad`.
u64 check_encode_range(u64 begin, u64 end, u32& first_bad) {
  constexpr u64 kBlock = 4096;
  std::vector<f32> in(kBlock);
  std::vector<u16> out(kBlock);
  u64 bad = 0;
  for (u64 base = begin; base < end; base += kBlock) {
    const u64 len = std::min(kBlock, end - base);
    for (u64 j = 0; j < len; ++j) {
      in[j] = std::bit_cast<f32>(static_cast<u32>(base + j));
    }
    fp32_to_fp16(std::span<const f32>(in.data(), len),
                 std::span<u16>(out.data(), len));
    for (u64 j = 0; j < len; ++j) {
      if (out[j] != oracle_encode(in[j])) {
        if (bad++ == 0) first_bad = static_cast<u32>(base + j);
      }
    }
  }
  return bad;
}

TEST(Fp16Oracle, EncodeMatchesOracleBitForBit) {
  if (kExhaustiveEncode) {
    ThreadPool pool;
    std::atomic<u64> bad{0};
    std::atomic<u32> first_bad{0};
    pool.parallel_for(
        u64{1} << 32,
        [&](u64 begin, u64 end) {
          u32 first = 0;
          const u64 n = check_encode_range(begin, end, first);
          if (n != 0 && bad.fetch_add(n) == 0) first_bad.store(first);
        },
        /*min_parallel=*/1);
    EXPECT_EQ(bad.load(), 0u) << "first mismatching input bits: 0x"
                              << std::hex << first_bad.load();
    return;
  }
  std::vector<f32> inputs;
  for (u64 bits = 0; bits < (u64{1} << 32); bits += 1021) {
    inputs.push_back(std::bit_cast<f32>(static_cast<u32>(bits)));
  }
  // Every binary32 exponent boundary, both signs, +/- 4 ulp: the places
  // where the codec switches between its zero/subnormal, normal and
  // overflow/inf/NaN cases.
  for (u32 sign = 0; sign <= 1; ++sign) {
    for (u32 exp = 0; exp <= 0xFF; ++exp) {
      const u32 boundary = (sign << 31) + (exp << 23);
      for (u32 d = 0; d <= 8; ++d) {
        inputs.push_back(std::bit_cast<f32>(boundary + d - 4));
      }
    }
  }
  std::vector<u16> out(inputs.size());
  fp32_to_fp16(inputs, out);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const u16 want = oracle_encode(inputs[i]);
    ASSERT_EQ(out[i], want) << "input bits 0x" << std::hex
                            << std::bit_cast<u32>(inputs[i]);
    ASSERT_EQ(Fp16::encode(inputs[i]), want)
        << "input bits 0x" << std::hex << std::bit_cast<u32>(inputs[i]);
  }
}

TEST(Fp16Oracle, DecodeMatchesOracleBitForBit) {
  std::vector<u16> in(0x10000);
  for (u32 bits = 0; bits <= 0xFFFF; ++bits) in[bits] = static_cast<u16>(bits);
  std::vector<f32> out(in.size());
  fp16_to_fp32(in, out);
  for (u32 bits = 0; bits <= 0xFFFF; ++bits) {
    const u32 want = std::bit_cast<u32>(oracle_decode(in[bits]));
    ASSERT_EQ(std::bit_cast<u32>(out[bits]), want) << "bits=0x" << std::hex
                                                   << bits;
    ASSERT_EQ(std::bit_cast<u32>(Fp16::decode(in[bits])), want)
        << "bits=0x" << std::hex << bits;
  }
}

TEST(Fp16, ZeroAndSignedZero) {
  EXPECT_EQ(Fp16::encode(0.0f), 0x0000u);
  EXPECT_EQ(Fp16::encode(-0.0f), 0x8000u);
  EXPECT_EQ(Fp16::decode(0x0000u), 0.0f);
  EXPECT_EQ(Fp16::decode(0x8000u), -0.0f);
  EXPECT_TRUE(std::signbit(Fp16::decode(0x8000u)));
}

TEST(Fp16, KnownValues) {
  EXPECT_EQ(Fp16::encode(1.0f), 0x3C00u);
  EXPECT_EQ(Fp16::encode(-2.0f), 0xC000u);
  EXPECT_EQ(Fp16::encode(0.5f), 0x3800u);
  EXPECT_EQ(Fp16::encode(65504.0f), 0x7BFFu);  // max finite half
  EXPECT_EQ(Fp16::decode(0x3C00u), 1.0f);
  EXPECT_EQ(Fp16::decode(0x7BFFu), 65504.0f);
  // Smallest positive subnormal: 2^-24.
  EXPECT_EQ(Fp16::decode(0x0001u), std::ldexp(1.0f, -24));
  // Smallest positive normal: 2^-14.
  EXPECT_EQ(Fp16::decode(0x0400u), std::ldexp(1.0f, -14));
}

TEST(Fp16, OverflowSaturatesToInfinity) {
  EXPECT_EQ(Fp16::encode(1e6f), 0x7C00u);
  EXPECT_EQ(Fp16::encode(-1e6f), 0xFC00u);
  EXPECT_EQ(Fp16::encode(65520.0f), 0x7C00u);  // rounds up past max finite
  EXPECT_EQ(Fp16::encode(65519.0f), 0x7BFFu);  // rounds down to max finite
}

TEST(Fp16, UnderflowFlushesToZero) {
  EXPECT_EQ(Fp16::encode(1e-10f), 0x0000u);
  EXPECT_EQ(Fp16::encode(-1e-10f), 0x8000u);
}

TEST(Fp16, InfinityAndNan) {
  const f32 inf = std::numeric_limits<f32>::infinity();
  EXPECT_EQ(Fp16::encode(inf), 0x7C00u);
  EXPECT_EQ(Fp16::encode(-inf), 0xFC00u);
  EXPECT_TRUE(std::isinf(Fp16::decode(0x7C00u)));
  EXPECT_TRUE(std::isinf(Fp16::decode(0xFC00u)));

  const f32 nan = std::numeric_limits<f32>::quiet_NaN();
  const u16 enc = Fp16::encode(nan);
  EXPECT_TRUE(Fp16::from_bits(enc).is_nan());
  EXPECT_TRUE(std::isnan(Fp16::decode(enc)));
}

TEST(Fp16, RoundToNearestEven) {
  // 1.0 + 2^-11 sits exactly halfway between 1.0 and 1.0+2^-10: ties to
  // even keep 1.0 (mantissa even).
  EXPECT_EQ(Fp16::encode(1.0f + std::ldexp(1.0f, -11)), 0x3C00u);
  // The next representable float above the halfway point rounds up.
  EXPECT_EQ(Fp16::encode(std::nextafter(1.0f + std::ldexp(1.0f, -11), 2.0f)),
            0x3C01u);
  // 1.0 + 3*2^-11 is halfway between 0x3C01 and 0x3C02: ties to even -> 0x3C02.
  EXPECT_EQ(Fp16::encode(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3C02u);
}

TEST(Fp16, ExhaustiveDecodeEncodeRoundtrip) {
  // Every half value decodes to a float that re-encodes to the same bits
  // (NaN payloads may be quieted, so compare NaN-ness instead).
  for (u32 bits = 0; bits <= 0xFFFF; ++bits) {
    const u16 h = static_cast<u16>(bits);
    const f32 f = Fp16::decode(h);
    if (Fp16::from_bits(h).is_nan()) {
      EXPECT_TRUE(std::isnan(f)) << "bits=" << bits;
      EXPECT_TRUE(Fp16::from_bits(Fp16::encode(f)).is_nan()) << "bits=" << bits;
      continue;
    }
    EXPECT_EQ(Fp16::encode(f), h) << "bits=" << bits;
  }
}

TEST(Fp16, EncodeMatchesNearestRepresentable) {
  // Property check over a sweep of floats: the encoded half must be at
  // least as close to the input as its neighbours.
  for (int i = -2000; i <= 2000; ++i) {
    const f32 x = static_cast<f32>(i) * 0.37f;
    const u16 h = Fp16::encode(x);
    const f32 fx = Fp16::decode(h);
    const f32 lo = Fp16::decode(static_cast<u16>(h > 0 ? h - 1 : h));
    const f32 hi = Fp16::decode(static_cast<u16>(h < 0x7BFF ? h + 1 : h));
    const f32 err = std::abs(fx - x);
    if (!std::isnan(lo) && !std::isinf(lo)) {
      EXPECT_LE(err, std::abs(lo - x) + 1e-9f) << "x=" << x;
    }
    if (!std::isnan(hi) && !std::isinf(hi)) {
      EXPECT_LE(err, std::abs(hi - x) + 1e-9f) << "x=" << x;
    }
  }
}

TEST(Fp16, BulkKernelsMatchScalar) {
  std::vector<f32> src;
  for (int i = 0; i < 10000; ++i) src.push_back(std::sin(i * 0.01f) * 100.0f);
  std::vector<u16> half(src.size());
  fp32_to_fp16(src, half);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(half[i], Fp16::encode(src[i])) << i;
  }
  std::vector<f32> back(src.size());
  fp16_to_fp32(half, back);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(back[i], Fp16::decode(half[i])) << i;
  }
}

TEST(Fp16, BulkKernelsRejectSizeMismatch) {
  // The kernels write dst[i] for every i < src.size(): a shorter dst must
  // be rejected before the loop, not written past its end.
  std::vector<f32> full(8);
  std::vector<u16> half(7);
  EXPECT_THROW(fp32_to_fp16(full, half), std::invalid_argument);
  EXPECT_THROW(fp16_to_fp32(half, full), std::invalid_argument);
  std::vector<u16> longer(9);
  EXPECT_THROW(fp32_to_fp16(full, longer), std::invalid_argument);
}

}  // namespace
}  // namespace mlpo
