// GradSource determinism + GradAccumulator semantics + mixed-precision
// kernels.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "train/grad_accum.hpp"
#include "train/grad_source.hpp"
#include "train/mixed_precision.hpp"
#include "util/fp16.hpp"

namespace mlpo {
namespace {

TEST(GradSource, DeterministicAcrossCalls) {
  GradSource src;
  std::vector<u16> a(128), b(128);
  src.generate_fp16(0, 5, 17, a);
  src.generate_fp16(0, 5, 17, b);
  EXPECT_EQ(a, b);
}

TEST(GradSource, DistinctCoordinatesGiveDistinctStreams) {
  GradSource src;
  std::vector<u16> base(64), other(64);
  src.generate_fp16(0, 1, 1, base);
  src.generate_fp16(1, 1, 1, other);
  EXPECT_NE(base, other) << "rank must affect the stream";
  src.generate_fp16(0, 2, 1, other);
  EXPECT_NE(base, other) << "subgroup must affect the stream";
  src.generate_fp16(0, 1, 2, other);
  EXPECT_NE(base, other) << "iteration must affect the stream";
}

TEST(GradSource, SeedChangesStream) {
  GradSource a(1), b(2);
  std::vector<u16> va(32), vb(32);
  a.generate_fp16(0, 0, 0, va);
  b.generate_fp16(0, 0, 0, vb);
  EXPECT_NE(va, vb);
}

TEST(GradSource, Fp32MatchesUpscaledFp16) {
  GradSource src;
  std::vector<u16> half(256);
  std::vector<f32> full(256), upscaled(256);
  src.generate_fp16(2, 3, 4, half);
  src.generate_fp32(2, 3, 4, full);
  fp16_to_fp32(half, upscaled);
  EXPECT_EQ(full, upscaled);
}

// FNV-1a over the raw bytes: independent of the splitmix64 under test.
template <typename T>
u64 digest(const std::vector<T>& values) {
  u64 h = 0xCBF29CE484222325ull;
  for (const std::byte b : std::as_bytes(std::span<const T>(values))) {
    h = (h ^ static_cast<u64>(b)) * 0x100000001B3ull;
  }
  return h;
}

struct GoldenStream {
  int rank;
  u32 subgroup;
  u64 iteration;
  std::size_t size;
  u64 fp16_digest;
  u64 fp32_digest;
};

// Recorded from the scalar per-element generator: the chunked generator
// must reproduce every bit, including across chunk boundaries (511/512/513)
// and in a ragged tail (12345).
TEST(GradSource, GoldenDigestsPinned) {
  const GoldenStream kGolden[] = {
      {0, 0, 0, 1, 0x0ABF2407B715FE41ull,
       0x4B8DCA7F9C73D5E9ull},
      {0, 0, 0, 511, 0x5525070B37DB0330ull,
       0xDEC0A18F468A4738ull},
      {0, 0, 0, 512, 0xD4A65E092D9915B4ull,
       0xE79D7243E723C0C6ull},
      {0, 0, 0, 513, 0x8E9466193614D694ull,
       0xC1A23D8D99AC1F86ull},
      {0, 0, 0, 12345, 0xF19CE73D036D0161ull,
       0xEFA8F5B015994570ull},
      {1, 7, 3, 1, 0x092DA307B5C074F4ull,
       0x223B047E63576B50ull},
      {1, 7, 3, 511, 0xD498F95E508D56B2ull,
       0x172B1A29FD2AAAE7ull},
      {1, 7, 3, 512, 0xF6C3F3A2E6037730ull,
       0x546A342B539810CCull},
      {1, 7, 3, 513, 0xF717E312D99CABD7ull,
       0xF8926B6D6B8918BBull},
      {1, 7, 3, 12345, 0x57664509ECC93170ull,
       0xF8E099B20C27441Cull},
      {3, 123456, 987654321, 1, 0x07E7A707B4ABB920ull,
       0x23FC037E64D53B79ull},
      {3, 123456, 987654321, 511, 0x6E4C719D47820703ull,
       0x5646E36108365FC3ull},
      {3, 123456, 987654321, 512, 0x3B2C699CCF066EDEull,
       0xEE449F824CA5D1E4ull},
      {3, 123456, 987654321, 513, 0x8B77E6BCB9D27801ull,
       0xB28FC30F75EBB42Aull},
      {3, 123456, 987654321, 12345, 0xBD895AA963D3B720ull,
       0xD95E63661B46F005ull},
  };
  const GradSource src;
  for (const GoldenStream& g : kGolden) {
    std::vector<u16> half(g.size);
    std::vector<f32> full(g.size);
    src.generate_fp16(g.rank, g.subgroup, g.iteration, half);
    src.generate_fp32(g.rank, g.subgroup, g.iteration, full);
    EXPECT_EQ(digest(half), g.fp16_digest)
        << "rank=" << g.rank << " sg=" << g.subgroup << " iter=" << g.iteration
        << " n=" << g.size;
    EXPECT_EQ(digest(full), g.fp32_digest)
        << "rank=" << g.rank << " sg=" << g.subgroup << " iter=" << g.iteration
        << " n=" << g.size;
  }
}

TEST(GradSource, ValuesAreSmallAndCentred) {
  GradSource src;
  std::vector<f32> g(10000);
  src.generate_fp32(0, 0, 0, g);
  f64 sum = 0;
  for (const f32 x : g) {
    EXPECT_LE(std::abs(x), 0.03f);
    sum += x;
  }
  EXPECT_NEAR(sum / g.size(), 0.0, 0.001);
}

TEST(GradAccumulator, StoreThenReadBack) {
  GradAccumulator accum(2, 16);
  std::vector<u16> g(16, Fp16::encode(0.5f));
  accum.store(1, g);
  EXPECT_EQ(accum.fp16(1)[0], Fp16::encode(0.5f));
  EXPECT_EQ(accum.fp16(0)[0], 0);  // untouched buffer stays zero
}

TEST(GradAccumulator, AccumulateSums) {
  GradAccumulator accum(1, 8);
  std::vector<u16> g1(8, Fp16::encode(0.25f));
  std::vector<u16> g2(8, Fp16::encode(0.5f));
  accum.store(0, g1);
  accum.accumulate(0, g2);
  for (const u16 h : accum.fp16(0)) {
    EXPECT_EQ(Fp16::decode(h), 0.75f);
  }
}

TEST(GradAccumulator, AccumulateParallelMatchesSerial) {
  ThreadPool pool(4);
  GradAccumulator serial(1, 5000), parallel(1, 5000);
  GradSource src;
  std::vector<u16> g(5000);
  src.generate_fp16(0, 0, 0, g);
  serial.store(0, g);
  parallel.store(0, g);
  src.generate_fp16(0, 0, 1, g);
  serial.accumulate(0, g, nullptr);
  parallel.accumulate(0, g, &pool);
  for (std::size_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(serial.fp16(0)[i], parallel.fp16(0)[i]) << i;
  }
}

TEST(GradAccumulator, AccumulateMatchesPerElementDecodeAddEncode) {
  // 1300 elements span two full chunks and a tail. The sums include
  // overflow to infinity and results in the subnormal range.
  constexpr std::size_t n = 1300;
  GradSource src;
  std::vector<u16> a(n), b(n);
  src.generate_fp16(0, 0, 0, a);
  src.generate_fp16(0, 0, 1, b);
  a[3] = b[3] = Fp16::encode(60000.0f);
  a[4] = Fp16::encode(3e-6f);
  b[4] = Fp16::encode(-2e-6f);
  GradAccumulator accum(1, n);
  accum.store(0, a);
  accum.accumulate(0, b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(accum.fp16(0)[i],
              Fp16::encode(Fp16::decode(a[i]) + Fp16::decode(b[i])))
        << i;
  }
  EXPECT_EQ(accum.fp16(0)[3], 0x7C00u);
}

TEST(GradAccumulator, UpscaleIntoMatchesScalarConversion) {
  GradAccumulator accum(1, 64);
  GradSource src;
  std::vector<u16> g(64);
  src.generate_fp16(0, 0, 9, g);
  accum.store(0, g);
  std::vector<f32> out(64), expect(64);
  accum.upscale_into(0, out);
  fp16_to_fp32(g, expect);
  EXPECT_EQ(out, expect);
}

TEST(GradAccumulator, ResetZeroesEverything) {
  GradAccumulator accum(2, 4);
  std::vector<u16> g(4, Fp16::encode(1.0f));
  accum.store(0, g);
  accum.store(1, g);
  accum.reset();
  for (u32 id = 0; id < 2; ++id) {
    for (const u16 h : accum.fp16(id)) EXPECT_EQ(h, 0);
  }
}

TEST(GradAccumulator, PerSubgroupSizesSupported) {
  GradAccumulator accum(std::vector<u64>{10, 20, 5});
  EXPECT_EQ(accum.num_subgroups(), 3u);
  EXPECT_EQ(accum.elems(0), 10u);
  EXPECT_EQ(accum.elems(1), 20u);
  EXPECT_EQ(accum.elems(2), 5u);
  std::vector<u16> wrong(11);
  EXPECT_THROW(accum.store(0, wrong), std::invalid_argument);
}

TEST(MixedPrecision, UpscaleDownscaleRoundtripExactForFp16Values) {
  ThreadPool pool(2);
  std::vector<u16> half(1000);
  for (std::size_t i = 0; i < half.size(); ++i) {
    half[i] = Fp16::encode(static_cast<f32>(i) * 0.125f);
  }
  std::vector<f32> full(1000);
  upscale_fp16_to_fp32(half, full, &pool);
  std::vector<u16> back(1000);
  downscale_fp32_to_fp16(full, back, &pool);
  EXPECT_EQ(back, half);
}

TEST(MixedPrecision, SizeMismatchThrows) {
  std::vector<u16> half(4);
  std::vector<f32> full(5);
  EXPECT_THROW(upscale_fp16_to_fp32(half, full), std::invalid_argument);
  EXPECT_THROW(downscale_fp32_to_fp16(full, half), std::invalid_argument);
}

TEST(MixedPrecision, ConvertCostScalesLinearly) {
  ConvertCost cost;
  cost.fp32_bytes_per_sec = 65e9;
  const f64 t100m = cost.seconds_for_params(100'000'000);
  EXPECT_NEAR(t100m, 400e6 / 65e9, 1e-9);
  EXPECT_NEAR(cost.seconds_for_params(200'000'000), 2 * t100m, 1e-12);
}

}  // namespace
}  // namespace mlpo
