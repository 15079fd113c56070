// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the counter-based hash
// behind the synthetic gradients, the deterministic parameter init and the
// subgroup state checksum. Golden digests in the tests pin its exact
// output, so it has exactly one definition.
#pragma once

#include "util/common.hpp"

namespace mlpo {

inline u64 splitmix64(u64 x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace mlpo
