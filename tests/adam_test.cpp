// Adam optimizer: reference math, parallel==reference bit-exactness,
// convergence property, parameter sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <span>
#include <vector>

#include "train/adam.hpp"

namespace mlpo {
namespace {

TEST(Adam, SingleStepMatchesHandComputation) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.beta1 = 0.9f;
  cfg.beta2 = 0.999f;
  cfg.eps = 1e-8f;

  std::vector<f32> p = {1.0f};
  std::vector<f32> m = {0.0f};
  std::vector<f32> v = {0.0f};
  std::vector<f32> g = {0.5f};
  adam_update_reference(cfg, p, m, v, g, 1);

  // m = 0.1*0.5 = 0.05; v = 0.001*0.25 = 0.00025
  // m_hat = 0.05/0.1 = 0.5; v_hat = 0.00025/0.001 = 0.25
  // p -= 0.1 * 0.5 / (0.5 + 1e-8) ~= 0.1
  EXPECT_NEAR(m[0], 0.05f, 1e-7);
  // (1 - beta2) in f32 rounds 0.001 to ~0.00099999: allow a few ulps.
  EXPECT_NEAR(v[0], 0.00025f, 1e-8);
  EXPECT_NEAR(p[0], 0.9f, 1e-5);
}

TEST(Adam, WeightDecayAddsToGradient) {
  AdamConfig cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.1f;
  std::vector<f32> p1 = {2.0f}, m1 = {0}, v1 = {0};
  std::vector<f32> p2 = {2.0f}, m2 = {0}, v2 = {0};
  std::vector<f32> g_zero = {0.0f};
  std::vector<f32> g_wd = {0.2f};  // wd * p = 0.1 * 2.0

  adam_update_reference(cfg, p1, m1, v1, g_zero, 1);
  AdamConfig no_wd = cfg;
  no_wd.weight_decay = 0.0f;
  adam_update_reference(no_wd, p2, m2, v2, g_wd, 1);
  EXPECT_EQ(p1[0], p2[0]);
}

TEST(Adam, RejectsBadInputs) {
  AdamConfig cfg;
  std::vector<f32> p(4), m(4), v(4), g(3);
  EXPECT_THROW(adam_update_reference(cfg, p, m, v, g, 1),
               std::invalid_argument);
  std::vector<f32> g4(4);
  EXPECT_THROW(adam_update_reference(cfg, p, m, v, g4, 0),
               std::invalid_argument);
}

class AdamParallelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AdamParallelTest, ParallelBitExactWithReference) {
  const std::size_t n = GetParam();
  std::mt19937 rng(1234 + n);
  std::uniform_real_distribution<f32> dist(-1.0f, 1.0f);

  std::vector<f32> p_ref(n), m_ref(n), v_ref(n), g(n);
  for (std::size_t i = 0; i < n; ++i) {
    p_ref[i] = dist(rng);
    m_ref[i] = dist(rng) * 0.1f;
    v_ref[i] = std::abs(dist(rng)) * 0.01f;
    g[i] = dist(rng);
  }
  auto p_par = p_ref;
  auto m_par = m_ref;
  auto v_par = v_ref;

  AdamConfig cfg;
  cfg.lr = 3e-4f;
  ThreadPool pool(4);
  for (u32 step = 1; step <= 3; ++step) {
    adam_update_reference(cfg, p_ref, m_ref, v_ref, g, step);
    adam_update(cfg, p_par, m_par, v_par, g, step, &pool);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(p_par[i], p_ref[i]) << i;
    EXPECT_EQ(m_par[i], m_ref[i]) << i;
    EXPECT_EQ(v_par[i], v_ref[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdamParallelTest,
                         ::testing::Values(1, 7, 64, 1000, 10001, 65536));

// FNV-1a over the raw bytes of the three state arrays.
u64 state_digest(const std::vector<f32>& p, const std::vector<f32>& m,
                 const std::vector<f32>& v) {
  u64 h = 0xCBF29CE484222325ull;
  for (const auto* arr : {&p, &m, &v}) {
    for (const std::byte b : std::as_bytes(std::span<const f32>(*arr))) {
      h = (h ^ static_cast<u64>(b)) * 0x100000001B3ull;
    }
  }
  return h;
}

// Recorded from the scalar kernel (std::sqrt with errno semantics). Inputs
// come from a fixed integer recurrence, not <random>'s distributions, whose
// output is not specified bit for bit across standard libraries.
TEST(Adam, GoldenDigestPinned) {
  constexpr u64 kGolden = 0x8DF84728196E0BCDull;
  constexpr std::size_t n = 10001;
  std::vector<f32> p(n), m(n), v(n), g(n);
  u32 x = 12345;
  const auto next = [&x] {
    x = x * 1664525u + 1013904223u;  // Numerical Recipes LCG
    return static_cast<f32>(static_cast<i32>(x >> 8) - (1 << 23)) * 0x1.0p-23f;
  };
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = next();
    g[i] = next() * 0.1f;
  }
  AdamConfig cfg;
  cfg.lr = 1e-3f;
  cfg.weight_decay = 0.01f;

  ThreadPool pool(4);
  for (ThreadPool* pl : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto pp = p;
    auto mm = m;
    auto vv = v;
    for (u32 step = 1; step <= 3; ++step) {
      adam_update(cfg, pp, mm, vv, g, step, pl);
    }
    EXPECT_EQ(state_digest(pp, mm, vv), kGolden)
        << (pl == nullptr ? "serial" : "pool");
  }
}

TEST(Adam, NullPoolFallsBackToSerial) {
  std::vector<f32> p = {1.0f, 2.0f}, m = {0, 0}, v = {0, 0}, g = {0.1f, 0.2f};
  auto p2 = p;
  auto m2 = m;
  auto v2 = v;
  AdamConfig cfg;
  adam_update(cfg, p, m, v, g, 1, nullptr);
  adam_update_reference(cfg, p2, m2, v2, g, 1);
  EXPECT_EQ(p, p2);
}

TEST(Adam, ConvergesOnQuadraticBowl) {
  // Minimise f(x) = 0.5*(x - 3)^2; gradient = x - 3.
  AdamConfig cfg;
  cfg.lr = 0.05f;
  std::vector<f32> p = {-5.0f}, m = {0}, v = {0}, g(1);
  for (u32 step = 1; step <= 2000; ++step) {
    g[0] = p[0] - 3.0f;
    adam_update_reference(cfg, p, m, v, g, step);
  }
  EXPECT_NEAR(p[0], 3.0f, 0.05f);
}

TEST(Adam, BiasCorrectionMakesEarlyStepsFullSized) {
  // With bias correction, the first step moves by ~lr regardless of beta.
  AdamConfig cfg;
  cfg.lr = 0.01f;
  std::vector<f32> p = {0.0f}, m = {0}, v = {0}, g = {1.0f};
  adam_update_reference(cfg, p, m, v, g, 1);
  EXPECT_NEAR(p[0], -0.01f, 1e-4);
}

struct HyperCase {
  f32 lr, beta1, beta2;
};

class AdamHyperTest : public ::testing::TestWithParam<HyperCase> {};

TEST_P(AdamHyperTest, StateStaysFiniteOverManySteps) {
  const auto [lr, b1, b2] = GetParam();
  AdamConfig cfg;
  cfg.lr = lr;
  cfg.beta1 = b1;
  cfg.beta2 = b2;
  std::mt19937 rng(7);
  std::uniform_real_distribution<f32> dist(-0.1f, 0.1f);
  std::vector<f32> p(64, 0.5f), m(64, 0), v(64, 0), g(64);
  for (u32 step = 1; step <= 200; ++step) {
    for (auto& x : g) x = dist(rng);
    adam_update_reference(cfg, p, m, v, g, step);
  }
  for (const f32 x : p) EXPECT_TRUE(std::isfinite(x));
  for (const f32 x : v) EXPECT_GE(x, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Hypers, AdamHyperTest,
    ::testing::Values(HyperCase{1e-4f, 0.9f, 0.999f},
                      HyperCase{1e-2f, 0.8f, 0.99f},
                      HyperCase{1e-3f, 0.0f, 0.999f},
                      HyperCase{1e-3f, 0.9f, 0.9f}));

}  // namespace
}  // namespace mlpo
