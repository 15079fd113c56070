// Tails and alignment of the ISA-cloned host kernels (MLPO_KERNEL_CLONES in
// util/kernel_dispatch.hpp): the FP16 codec, the splitmix64 hash (alone and
// inside the gradient generator) and Adam, at every length 0..257 and every
// start offset 0..15 elements into a buffer. Those lengths cover the 4-, 8-
// and 16-lane vector bodies of the baseline, AVX2 and AVX-512 clones, their
// peeled heads and their remainders. Each output is compared bit for bit
// with a scalar oracle in this file, and the elements around it must keep
// their sentinel. The test binary itself carries no clones, so the oracles
// run at the ISA the tree is built for; the library runs the clone the
// loader picked, which the test records as the "kernel_isa" property.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "train/adam.hpp"
#include "train/grad_source.hpp"
#include "util/fp16.hpp"
#include "util/kernel_dispatch.hpp"
#include "util/splitmix64.hpp"

namespace mlpo {
namespace {

constexpr std::size_t kMaxLen = 257;
constexpr std::size_t kMaxOffset = 15;

#define MLPO_STRINGIFY_(x) #x
#define MLPO_STRINGIFY(x) MLPO_STRINGIFY_(x)

// The kernel code this process runs: the clone the ifunc resolvers pick on
// this CPU, or the ISA the tree was built for when the macro is empty.
const char* resolved_kernel_isa() {
  constexpr std::string_view kClones = MLPO_STRINGIFY(MLPO_KERNEL_CLONES);
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
  if (!kClones.empty()) {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) {
      return "clone x86-64-v4 (avx512dq)";
    }
    if (__builtin_cpu_supports("x86-64-v3")) return "clone x86-64-v3 (avx2)";
    return "clone default (baseline)";
  }
#endif
#if defined(__AVX512DQ__)
  return "no clones, built for avx512dq";
#elif defined(__AVX2__)
  return "no clones, built for avx2";
#else
  return "no clones, built for the baseline ISA";
#endif
}

// Calls fn(len, offset) for every case; stops at the first failing case so
// a broken kernel reports one case, not thousands.
template <typename Fn>
void for_each_case(Fn&& fn) {
  for (std::size_t len = 0; len <= kMaxLen; ++len) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      SCOPED_TRACE(::testing::Message() << "len=" << len << " offset=" << off);
      fn(len, off);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// A buffer with `off` leading and kMaxOffset + 1 trailing sentinels around a
// window of `len` elements.
template <typename T>
struct Guarded {
  Guarded(std::size_t offset, std::size_t length, T fill)
      : buf(offset + length + kMaxOffset + 1, fill),
        off(offset),
        len(length) {}
  std::span<T> window() { return std::span<T>(buf).subspan(off, len); }
  std::vector<T> buf;
  std::size_t off;
  std::size_t len;
};

// Bitwise equality inside the window and sentinel bits outside it.
template <typename T>
void expect_window(const Guarded<T>& got, const std::vector<T>& want,
                   T sentinel) {
  using Bits = std::conditional_t<sizeof(T) == 4, u32, u16>;
  for (std::size_t i = 0; i < got.buf.size(); ++i) {
    const bool inside = i >= got.off && i < got.off + got.len;
    const T expected = inside ? want[i - got.off] : sentinel;
    ASSERT_EQ(std::bit_cast<Bits>(got.buf[i]), std::bit_cast<Bits>(expected))
        << "element " << i << (inside ? " (window)" : " (sentinel)");
  }
}

// ---------------------------------------------------------------------------
// Scalar oracles.

f32 oracle_decode(u16 h) {
  const u32 sign = static_cast<u32>(h & 0x8000u) << 16;
  const u32 exp = (h >> 10) & 0x1Fu;
  u32 man = h & 0x3FFu;
  if (exp == 0x1Fu) return std::bit_cast<f32>(sign | 0x7F800000u | (man << 13));
  if (exp != 0) {
    return std::bit_cast<f32>(sign | ((exp - 15 + 127) << 23) | (man << 13));
  }
  if (man == 0) return std::bit_cast<f32>(sign);
  u32 e = 127 - 15 + 1;
  while ((man & 0x400u) == 0) {
    man <<= 1;
    --e;
  }
  return std::bit_cast<f32>(sign | (e << 23) | ((man & 0x3FFu) << 13));
}

u16 oracle_encode(f32 value) {
  const u32 f = std::bit_cast<u32>(value);
  const u32 sign = (f >> 16) & 0x8000u;
  const u32 exp = (f >> 23) & 0xFFu;
  const u32 man = f & 0x7FFFFFu;
  if (exp == 0xFFu) {
    return static_cast<u16>(sign | 0x7C00u | (man ? (man >> 13) | 0x200u : 0));
  }
  const i32 e = static_cast<i32>(exp) - 127 + 15;
  if (e >= 0x1F) return static_cast<u16>(sign | 0x7C00u);
  // Round to nearest even on the dropped bits of the 24-bit significand.
  const u32 full = man | 0x800000u;
  const u32 shift = e <= 0 ? static_cast<u32>(14 - e) : 13u;
  if (shift > 24) return static_cast<u16>(sign);
  u32 kept = full >> shift;
  const u32 rem = full & ((1u << shift) - 1);
  const u32 halfway = 1u << (shift - 1);
  if (rem > halfway || (rem == halfway && (kept & 1u))) ++kept;
  // Normal halves: drop the implicit bit and add the exponent; a carry out
  // of the significand moves into the exponent (next binade or infinity).
  const u32 bits = e <= 0 ? kept : (static_cast<u32>(e) << 10) + kept - 0x400u;
  return static_cast<u16>(sign | bits);
}

f32 oracle_hash_value(u64 x) {
  const u64 h = splitmix64(x);
  const f64 unit = static_cast<f64>(h >> 11) * 0x1.0p-53;
  return static_cast<f32>((unit - 0.5) * 0.04);
}

// Codec inputs: every class the encoder distinguishes (zeros, subnormal
// halves, round-to-even ties, normals, overflow, inf, NaN with payload),
// both signs.
f32 codec_input(std::size_t i) {
  static const u32 kBits[] = {
      0x00000000u, 0x33000000u, 0x33000001u, 0x387FE000u, 0x387FF000u,
      0x38800000u, 0x3F800000u, 0x3F801000u, 0x3F803000u, 0x3FFFF000u,
      0x477FE000u, 0x477FF000u, 0x47800000u, 0x7F800000u, 0x7FC00001u,
      0x7F812345u, 0x3DCCCCCDu, 0x00000001u, 0x3E800FFFu};
  constexpr std::size_t kCount = sizeof(kBits) / sizeof(kBits[0]);
  const u32 sign = static_cast<u32>((i / kCount) & 1u) << 31;
  return std::bit_cast<f32>(kBits[i % kCount] ^ sign ^
                            static_cast<u32>(i * 0x9E3779B1u & 0x7u));
}

TEST(KernelClones, RecordsResolvedIsa) {
  RecordProperty("kernel_isa", resolved_kernel_isa());
  std::printf("kernel clones resolve to: %s\n", resolved_kernel_isa());
}

TEST(KernelClones, Fp32ToFp16TailsAndOffsets) {
  constexpr u16 kSentinel = 0xA5A5u;
  for_each_case([](std::size_t len, std::size_t off) {
    std::vector<f32> src(len);
    std::vector<u16> want(len);
    for (std::size_t i = 0; i < len; ++i) {
      src[i] = codec_input(i + off);
      want[i] = oracle_encode(src[i]);
    }
    // The source sits at the same offset in its own buffer.
    Guarded<f32> in(off, len, 0.0f);
    std::copy(src.begin(), src.end(), in.window().begin());
    Guarded<u16> out(off, len, kSentinel);
    fp32_to_fp16(in.window(), out.window());
    expect_window(out, want, kSentinel);
  });
}

TEST(KernelClones, Fp16ToFp32TailsAndOffsets) {
  const f32 kSentinel = std::bit_cast<f32>(0xDEADBEEFu);
  for_each_case([&](std::size_t len, std::size_t off) {
    Guarded<u16> in(off, len, 0);
    std::vector<f32> want(len);
    for (std::size_t i = 0; i < len; ++i) {
      // Spreads the cases over the whole 16-bit space.
      const u16 h =
          static_cast<u16>((len * 131 + off * 4099 + i * 257) & 0xFFFFu);
      in.window()[i] = h;
      want[i] = oracle_decode(h);
    }
    Guarded<f32> out(off, len, kSentinel);
    fp16_to_fp32(in.window(), out.window());
    expect_window(out, want, kSentinel);
  });
}

TEST(KernelClones, GradientHashTailsAndOffsets) {
  const GradSource src(0xFEEDull);
  const u16 kHalfSentinel = 0x5A5Au;
  const f32 kSentinel = std::bit_cast<f32>(0xDEADBEEFu);
  for_each_case([&](std::size_t len, std::size_t off) {
    const int rank = static_cast<int>(off % 3);
    const u32 sg = static_cast<u32>(len);
    const u64 iter = 1000 + off;
    const u64 base = splitmix64(0xFEEDull ^ (static_cast<u64>(rank) << 48) ^
                                (static_cast<u64>(sg) << 24) ^ iter);
    std::vector<u16> want_half(len);
    std::vector<f32> want_full(len);
    for (std::size_t i = 0; i < len; ++i) {
      want_half[i] = oracle_encode(oracle_hash_value(base + i));
      want_full[i] = oracle_decode(want_half[i]);
    }
    Guarded<u16> half(off, len, kHalfSentinel);
    src.generate_fp16(rank, sg, iter, half.window());
    expect_window(half, want_half, kHalfSentinel);
    Guarded<f32> full(off, len, kSentinel);
    src.generate_fp32(rank, sg, iter, full.window());
    expect_window(full, want_full, kSentinel);
  });
}

TEST(KernelClones, HashToFloatsTailsAndOffsets) {
  const f32 kSentinel = std::bit_cast<f32>(0xDEADBEEFu);
  for_each_case([&](std::size_t len, std::size_t off) {
    const u64 first = splitmix64(len * 64 + off);
    std::vector<f32> want(len);
    for (std::size_t i = 0; i < len; ++i) {
      want[i] = oracle_hash_value(first + i);
    }
    Guarded<f32> out(off, len, kSentinel);
    hash_to_floats(first, out.window());
    expect_window(out, want, kSentinel);
  });
}

// One Adam step per element, in the order the library's loop evaluates it.
void oracle_adam(const AdamConfig& cfg, u32 step, f32& p, f32& m, f32& v,
                 f32 g) {
  const f32 inv_bc1 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta1, step)));
  const f32 inv_bc2 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta2, step)));
  const f32 grad = g + cfg.weight_decay * p;
  m = cfg.beta1 * m + (1.0f - cfg.beta1) * grad;
  v = cfg.beta2 * v + (1.0f - cfg.beta2) * grad * grad;
  p -= cfg.lr * (m * inv_bc1) / (std::sqrt(v * inv_bc2) + cfg.eps);
}

TEST(KernelClones, AdamTailsAndOffsets) {
  AdamConfig cfg;
  cfg.lr = 1e-3f;
  cfg.weight_decay = 0.01f;
  const f32 kSentinel = std::bit_cast<f32>(0xDEADBEEFu);
  for_each_case([&](std::size_t len, std::size_t off) {
    // The gradient sits at a different offset, so the four arrays are not
    // mutually aligned.
    Guarded<f32> p(off, len, kSentinel), m(off, len, kSentinel),
        v(off, len, kSentinel), g(kMaxOffset - off, len, kSentinel);
    u64 x = len * 64 + off;
    for (std::size_t i = 0; i < len; ++i) {
      p.window()[i] = oracle_hash_value(x++) * 50.0f;
      m.window()[i] = oracle_hash_value(x++);
      v.window()[i] = std::abs(oracle_hash_value(x++)) * 0.1f;
      g.window()[i] = oracle_hash_value(x++) * 5.0f;
    }
    std::vector<f32> wp(p.window().begin(), p.window().end());
    std::vector<f32> wm(m.window().begin(), m.window().end());
    std::vector<f32> wv(v.window().begin(), v.window().end());
    const std::vector<f32> wg(g.window().begin(), g.window().end());
    const u32 step = static_cast<u32>(1 + off);
    for (std::size_t i = 0; i < len; ++i) {
      oracle_adam(cfg, step, wp[i], wm[i], wv[i], wg[i]);
    }
    adam_update(cfg, p.window(), m.window(), v.window(), g.window(), step);
    expect_window(p, wp, kSentinel);
    expect_window(m, wm, kSentinel);
    expect_window(v, wv, kSentinel);
  });
}

}  // namespace
}  // namespace mlpo
