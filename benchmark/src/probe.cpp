#include "probe.hpp"

#include <chrono>
#include <cstring>
#include <random>
#include <stdexcept>
#include <vector>

#include "train/adam.hpp"
#include "train/grad_source.hpp"
#include "train/mixed_precision.hpp"
#include "util/fp16.hpp"
#include "util/thread_pool.hpp"

namespace mlpo::benchmark {

namespace {

/// Run `kernel` back to back until `seconds` have passed (at least once);
/// returns GB/s for `bytes_per_call` moved per call.
template <typename Kernel>
f64 gbps(f64 seconds, f64 bytes_per_call, Kernel&& kernel) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  u64 calls = 0;
  f64 elapsed = 0;
  do {
    kernel(calls);
    ++calls;
    elapsed = std::chrono::duration<f64>(Clock::now() - start).count();
  } while (elapsed < seconds);
  return bytes_per_call * static_cast<f64>(calls) / elapsed / 1e9;
}

}  // namespace

KernelProbe probe_kernels(u64 elems, u64 seed, u32 threads,
                          f64 seconds_per_kernel, Tracer& tracer, u64 parent) {
  if (elems == 0) throw std::invalid_argument("probe: zero-element subgroup");
  ThreadPool pool(threads);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<f32> small(-0.02f, 0.02f);

  std::vector<f32> params(elems), momentum(elems), variance(elems);
  std::vector<f32> grads(elems);
  std::vector<u16> grads16(elems);
  for (u64 i = 0; i < elems; ++i) {
    params[i] = small(rng);
    grads[i] = small(rng);
    grads16[i] = Fp16::encode(grads[i]);
  }

  KernelProbe out;
  const f64 n = static_cast<f64>(elems);
  {
    Span span(tracer, "probe.adam", parent, 0);
    const AdamConfig cfg;
    out.adam_gbps = gbps(seconds_per_kernel, 28 * n, [&](u64 call) {
      adam_update(cfg, params, momentum, variance, grads,
                  static_cast<u32>(call + 1), &pool);
    });
  }
  {
    Span span(tracer, "probe.fp16_upscale", parent, 0);
    out.fp16_upscale_gbps = gbps(seconds_per_kernel, 6 * n, [&](u64) {
      upscale_fp16_to_fp32(grads16, grads, &pool);
    });
  }
  {
    Span span(tracer, "probe.grad_generate", parent, 0);
    const GradSource source(seed);
    out.grad_generate_gbps = gbps(seconds_per_kernel, 2 * n, [&](u64 call) {
      source.generate_fp16(0, static_cast<u32>(call), call, grads16);
    });
  }
  {
    Span span(tracer, "probe.memcpy", parent, 0);
    // Adam's footprint: 14 B read + 14 B written per element, bounced
    // between two buffers so each call reads what the previous one wrote.
    std::vector<u8> a(14 * elems, 1), b(14 * elems, 2);
    out.memcpy_gbps = gbps(seconds_per_kernel, 28 * n, [&](u64 call) {
      if (call % 2 == 0) {
        std::memcpy(b.data(), a.data(), a.size());
      } else {
        std::memcpy(a.data(), b.data(), b.size());
      }
    });
    // Read the copies back so the compiler cannot drop them as dead stores.
    volatile u8 sink = static_cast<u8>(a[elems] ^ b[elems]);
    (void)sink;
  }
  return out;
}

}  // namespace mlpo::benchmark
