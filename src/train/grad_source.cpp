#include "train/grad_source.hpp"

#include <algorithm>

#include "util/fp16.hpp"
#include "util/kernel_dispatch.hpp"
#include "util/splitmix64.hpp"

namespace mlpo {

namespace {

// Elements hashed per bulk conversion: large enough to amortise the call,
// small enough that the scratch stays on the stack and in L1.
constexpr std::size_t kChunk = 512;

u64 stream_base(u64 seed, int rank, u32 subgroup_id, u64 iteration) {
  return splitmix64(seed ^ (static_cast<u64>(rank) << 48) ^
                    (static_cast<u64>(subgroup_id) << 24) ^ iteration);
}

}  // namespace

// h >> 11 has 53 bits, so the signed conversion is exact and avoids the
// unsigned one's fix-up branch. Only the AVX-512 clone vectorises the hash
// (64-bit multiply and int64 -> double convert).
MLPO_KERNEL_CLONES void hash_to_floats(u64 first, std::span<f32> out) {
  for (std::size_t j = 0; j < out.size(); ++j) {
    const u64 h = splitmix64(first + j);
    const f64 unit = static_cast<f64>(static_cast<i64>(h >> 11)) * 0x1.0p-53;
    out[j] = static_cast<f32>((unit - 0.5) * 0.04);
  }
}

void GradSource::generate_fp16(int rank, u32 subgroup_id, u64 iteration,
                               std::span<u16> out) const {
  const u64 base = stream_base(seed_, rank, subgroup_id, iteration);
  f32 values[kChunk];
  for (std::size_t i = 0; i < out.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, out.size() - i);
    const std::span<f32> chunk(values, len);
    hash_to_floats(base + i, chunk);
    fp32_to_fp16(chunk, out.subspan(i, len));
  }
}

void GradSource::generate_fp32(int rank, u32 subgroup_id, u64 iteration,
                               std::span<f32> out) const {
  const u64 base = stream_base(seed_, rank, subgroup_id, iteration);
  u16 half[kChunk];
  for (std::size_t i = 0; i < out.size(); i += kChunk) {
    const std::size_t len = std::min(kChunk, out.size() - i);
    const std::span<f32> chunk = out.subspan(i, len);
    hash_to_floats(base + i, chunk);
    fp32_to_fp16(chunk, std::span<u16>(half, len));
    fp16_to_fp32(std::span<const u16>(half, len), chunk);
  }
}

}  // namespace mlpo
