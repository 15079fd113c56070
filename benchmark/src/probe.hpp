// Kernel probe for the traced run's "train" layer: the update-phase kernels
// timed at the workload's real subgroup size, beside a memcpy of the Adam
// kernel's byte footprint as the roofline they are compared against.
#pragma once

#include "trace.hpp"
#include "util/common.hpp"

namespace mlpo::benchmark {

struct KernelProbe {
  f64 adam_gbps = 0;           ///< adam_update, 28 B moved per element
  f64 fp16_upscale_gbps = 0;   ///< upscale_fp16_to_fp32, 6 B per element
  f64 grad_generate_gbps = 0;  ///< GradSource::generate_fp16, 2 B written
  f64 memcpy_gbps = 0;         ///< memcpy of 14 B per element (28 B moved)
};

/// Time each kernel over `elems`-element arrays filled from `seed`, on a
/// ThreadPool of `threads`, for about `seconds_per_kernel` wall seconds
/// each. Every kernel runs inside its own span under `parent`.
KernelProbe probe_kernels(u64 elems, u64 seed, u32 threads,
                          f64 seconds_per_kernel, Tracer& tracer, u64 parent);

}  // namespace mlpo::benchmark
