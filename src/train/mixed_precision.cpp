#include "train/mixed_precision.hpp"

#include <stdexcept>

#include "util/fp16.hpp"

namespace mlpo {

void upscale_fp16_to_fp32(std::span<const u16> src, std::span<f32> dst,
                          ThreadPool* pool) {
  if (src.size() != dst.size()) {
    throw std::invalid_argument("upscale: size mismatch");
  }
  if (pool == nullptr) {
    fp16_to_fp32(src, dst);
    return;
  }
  pool->parallel_for(src.size(), [&](u64 begin, u64 end) {
    fp16_to_fp32(src.subspan(begin, end - begin),
                 dst.subspan(begin, end - begin));
  });
}

}  // namespace mlpo
