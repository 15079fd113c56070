#include "train/adam.hpp"

#include <cmath>
#include <stdexcept>

#include "util/kernel_dispatch.hpp"

namespace mlpo {

namespace {

// Shared inner loop; the f64 bias corrections are hoisted by the callers so
// both paths use identical constants.
MLPO_KERNEL_CLONES void adam_span(const AdamConfig& cfg, f32* p, f32* m,
                                  f32* v, const f32* g, u64 begin, u64 end,
                                  f32 inv_bc1, f32 inv_bc2) {
  const f32 b1 = cfg.beta1;
  const f32 b2 = cfg.beta2;
  const f32 one_m_b1 = 1.0f - b1;
  const f32 one_m_b2 = 1.0f - b2;
  const f32 lr = cfg.lr;
  const f32 eps = cfg.eps;
  const f32 wd = cfg.weight_decay;
  for (u64 i = begin; i < end; ++i) {
    const f32 grad = g[i] + wd * p[i];
    m[i] = b1 * m[i] + one_m_b1 * grad;
    v[i] = b2 * v[i] + one_m_b2 * grad * grad;
    const f32 m_hat = m[i] * inv_bc1;
    const f32 v_hat = v[i] * inv_bc2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

void check_sizes(std::span<f32> params, std::span<f32> momentum,
                 std::span<f32> variance, std::span<const f32> grads,
                 u32 step) {
  if (params.size() != momentum.size() || params.size() != variance.size() ||
      params.size() != grads.size()) {
    throw std::invalid_argument("adam_update: array size mismatch");
  }
  if (step == 0) throw std::invalid_argument("adam_update: step must be >= 1");
}

}  // namespace

void adam_update_reference(const AdamConfig& cfg, std::span<f32> params,
                           std::span<f32> momentum, std::span<f32> variance,
                           std::span<const f32> grads, u32 step) {
  check_sizes(params, momentum, variance, grads, step);
  const f32 inv_bc1 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta1, step)));
  const f32 inv_bc2 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta2, step)));
  adam_span(cfg, params.data(), momentum.data(), variance.data(), grads.data(),
            0, params.size(), inv_bc1, inv_bc2);
}

void adam_update(const AdamConfig& cfg, std::span<f32> params,
                 std::span<f32> momentum, std::span<f32> variance,
                 std::span<const f32> grads, u32 step, ThreadPool* pool) {
  check_sizes(params, momentum, variance, grads, step);
  const f32 inv_bc1 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta1, step)));
  const f32 inv_bc2 =
      1.0f / (1.0f - static_cast<f32>(std::pow(cfg.beta2, step)));
  if (pool == nullptr) {
    adam_span(cfg, params.data(), momentum.data(), variance.data(),
              grads.data(), 0, params.size(), inv_bc1, inv_bc2);
    return;
  }
  pool->parallel_for(params.size(), [&](u64 begin, u64 end) {
    adam_span(cfg, params.data(), momentum.data(), variance.data(),
              grads.data(), begin, end, inv_bc1, inv_bc2);
  });
}

}  // namespace mlpo
