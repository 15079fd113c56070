#include "train/grad_accum.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/fp16.hpp"

namespace mlpo {

GradAccumulator::GradAccumulator(u32 num_subgroups, u64 subgroup_real_elems) {
  buffers_.resize(num_subgroups);
  for (auto& b : buffers_) b.assign(subgroup_real_elems, 0);
}

GradAccumulator::GradAccumulator(const std::vector<u64>& elems_per_subgroup) {
  buffers_.resize(elems_per_subgroup.size());
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    buffers_[i].assign(elems_per_subgroup[i], 0);
  }
}

void GradAccumulator::store(u32 id, std::span<const u16> grads_fp16) {
  auto& buf = buffers_.at(id);
  if (grads_fp16.size() != buf.size()) {
    throw std::invalid_argument("GradAccumulator::store: size mismatch");
  }
  std::copy(grads_fp16.begin(), grads_fp16.end(), buf.begin());
}

void GradAccumulator::accumulate(u32 id, std::span<const u16> grads_fp16,
                                 ThreadPool* pool) {
  auto& buf = buffers_.at(id);
  if (grads_fp16.size() != buf.size()) {
    throw std::invalid_argument("GradAccumulator::accumulate: size mismatch");
  }
  // Decode both operands a chunk at a time, add in FP32, encode back: the
  // same per-element decode/add/encode, through the vectorised bulk codec.
  const std::span<u16> acc(buf);
  const auto add_range = [&](u64 begin, u64 end) {
    constexpr u64 kChunk = 512;
    f32 sum[kChunk];
    f32 addend[kChunk];
    for (u64 i = begin; i < end; i += kChunk) {
      const u64 len = std::min(kChunk, end - i);
      fp16_to_fp32(acc.subspan(i, len), std::span<f32>(sum, len));
      fp16_to_fp32(grads_fp16.subspan(i, len), std::span<f32>(addend, len));
      for (u64 j = 0; j < len; ++j) sum[j] += addend[j];
      fp32_to_fp16(std::span<const f32>(sum, len), acc.subspan(i, len));
    }
  };
  if (pool == nullptr) {
    add_range(0, buf.size());
  } else {
    pool->parallel_for(buf.size(), add_range);
  }
}

std::span<const u16> GradAccumulator::fp16(u32 id) const {
  return buffers_.at(id);
}

std::span<u16> GradAccumulator::fp16(u32 id) { return buffers_.at(id); }

void GradAccumulator::upscale_into(u32 id, std::span<f32> out,
                                   ThreadPool* pool) const {
  const auto& buf = buffers_.at(id);
  if (out.size() != buf.size()) {
    throw std::invalid_argument("GradAccumulator::upscale_into: size mismatch");
  }
  const auto convert = [&](u64 begin, u64 end) {
    fp16_to_fp32(std::span<const u16>(buf).subspan(begin, end - begin),
                 out.subspan(begin, end - begin));
  };
  if (pool == nullptr) {
    convert(0, buf.size());
  } else {
    pool->parallel_for(buf.size(), convert);
  }
}

void GradAccumulator::reset() {
  for (auto& b : buffers_) std::fill(b.begin(), b.end(), 0);
}

}  // namespace mlpo
