#include "train/subgroup.hpp"

#include <cstring>
#include <stdexcept>

#include "train/grad_source.hpp"
#include "util/splitmix64.hpp"

namespace mlpo {

namespace {

// Serialized layout header; fixed-width fields, host endianness (tiers live
// in the same process).
struct Header {
  u32 magic;
  u32 id;
  u64 sim_params;
  u64 elem_scale;
  u32 step;
  u32 reserved;
};
constexpr u32 kMagic = 0x4D4C504Fu;  // "MLPO"

}  // namespace

Subgroup::Subgroup(u32 id, u64 sim_params, u64 elem_scale)
    : id_(id), sim_params_(sim_params), elem_scale_(elem_scale) {
  if (elem_scale == 0) throw std::invalid_argument("Subgroup: elem_scale == 0");
  if (sim_params == 0) throw std::invalid_argument("Subgroup: sim_params == 0");
  // Round up so even tiny subgroups materialise at least one element.
  const u64 real = (sim_params + elem_scale - 1) / elem_scale;
  params_.assign(real, 0.0f);
  momentum_.assign(real, 0.0f);
  variance_.assign(real, 0.0f);
}

u64 Subgroup::serialized_bytes() const {
  return sizeof(Header) + 3 * params_.size() * sizeof(f32);
}

void Subgroup::serialize(std::span<u8> out) const {
  if (out.size() != serialized_bytes()) {
    throw std::invalid_argument("Subgroup::serialize: bad buffer size");
  }
  Header h{kMagic, id_, sim_params_, elem_scale_, step_, 0};
  u8* p = out.data();
  std::memcpy(p, &h, sizeof(h));
  p += sizeof(h);
  const std::size_t arr = params_.size() * sizeof(f32);
  std::memcpy(p, params_.data(), arr);
  p += arr;
  std::memcpy(p, momentum_.data(), arr);
  p += arr;
  std::memcpy(p, variance_.data(), arr);
}

void Subgroup::deserialize(std::span<const u8> in) {
  if (in.size() != serialized_bytes()) {
    throw std::invalid_argument("Subgroup::deserialize: bad buffer size");
  }
  Header h{};
  const u8* p = in.data();
  std::memcpy(&h, p, sizeof(h));
  p += sizeof(h);
  if (h.magic != kMagic || h.id != id_ || h.sim_params != sim_params_ ||
      h.elem_scale != elem_scale_) {
    throw std::runtime_error("Subgroup::deserialize: header mismatch for id " +
                             std::to_string(id_));
  }
  step_ = h.step;
  const std::size_t arr = params_.size() * sizeof(f32);
  std::memcpy(params_.data(), p, arr);
  p += arr;
  std::memcpy(momentum_.data(), p, arr);
  p += arr;
  std::memcpy(variance_.data(), p, arr);
}

u64 Subgroup::checksum() const {
  // splitmix64 as a finalizer: good avalanche for checksums.
  u64 h = splitmix64(id_ ^ (sim_params_ << 20) ^ step_);
  const auto fold = [&h](std::span<const f32> arr) {
    for (const f32 v : arr) {
      u32 bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = splitmix64(h ^ bits);
    }
  };
  fold(params_);
  fold(momentum_);
  fold(variance_);
  return h;
}

std::string Subgroup::key(int rank, u32 id) {
  return "sg/" + std::to_string(rank) + "/" + std::to_string(id);
}

void Subgroup::deterministic_param_init(int rank, u32 id,
                                        std::span<f32> params) {
  const u64 base = splitmix64(0xC0FFEEull ^ (static_cast<u64>(rank) << 40) ^
                              (static_cast<u64>(id) << 8));
  hash_to_floats(base, params);
}

}  // namespace mlpo
