#include "train/subgroup.hpp"

#include <cstddef>
#include <cstring>
#include <stdexcept>

#include "train/grad_source.hpp"
#include "util/splitmix64.hpp"

namespace mlpo {

namespace {

// Image header; fixed-width fields, host endianness (tiers live in the
// same process).
struct Header {
  u32 magic;
  u32 id;
  u64 sim_params;
  u64 elem_scale;
  u32 step;
  u32 reserved;
};
static_assert(sizeof(Header) == Subgroup::kHeaderBytes);
constexpr u32 kMagic = 0x4D4C504Fu;  // "MLPO"
constexpr std::size_t kStepOffset = offsetof(Header, step);

/// Does the header at the front of `image` name subgroup (id, sim, scale)?
bool header_names(std::span<const u8> image, u32 id, u64 sim_params,
                  u64 elem_scale) {
  Header h{};
  std::memcpy(&h, image.data(), sizeof(h));
  return h.magic == kMagic && h.id == id && h.sim_params == sim_params &&
         h.elem_scale == elem_scale;
}

}  // namespace

u64 Subgroup::image_bytes(u64 sim_params, u64 elem_scale) {
  if (elem_scale == 0) throw std::invalid_argument("Subgroup: elem_scale == 0");
  if (sim_params == 0) throw std::invalid_argument("Subgroup: sim_params == 0");
  // Round up so even tiny subgroups materialise at least one element.
  const u64 real = (sim_params + elem_scale - 1) / elem_scale;
  return kHeaderBytes + 3 * real * sizeof(f32);
}

Subgroup::Subgroup(u32 id, u64 sim_params, u64 elem_scale)
    : Subgroup(id, sim_params, elem_scale, {}) {}

Subgroup::Subgroup(u32 id, u64 sim_params, u64 elem_scale,
                   std::span<u8> image)
    : id_(id), sim_params_(sim_params), elem_scale_(elem_scale),
      image_(image) {
  const u64 bytes = image_bytes(sim_params, elem_scale);
  real_elems_ = (bytes - kHeaderBytes) / (3 * sizeof(f32));
  if (image_.data() == nullptr) {
    owned_ = std::make_unique<u8[]>(bytes);  // value-initialised: zeroed
    image_ = {owned_.get(), bytes};
  } else if (image_.size() != bytes) {
    throw std::invalid_argument("Subgroup: image is not image_bytes() long");
  }
  write_header(0);
}

Subgroup::Subgroup(const Subgroup& other)
    : id_(other.id_), sim_params_(other.sim_params_),
      elem_scale_(other.elem_scale_), real_elems_(other.real_elems_),
      owned_(std::make_unique_for_overwrite<u8[]>(other.image_.size())),
      image_(owned_.get(), other.image_.size()) {
  std::memcpy(image_.data(), other.image_.data(), image_.size());
}

void Subgroup::write_header(u32 step) {
  const Header h{kMagic, id_, sim_params_, elem_scale_, step, 0};
  std::memcpy(image_.data(), &h, sizeof(h));
}

u32 Subgroup::step() const {
  u32 s;
  std::memcpy(&s, image_.data() + kStepOffset, sizeof(s));
  return s;
}

void Subgroup::set_step(u32 s) {
  std::memcpy(image_.data() + kStepOffset, &s, sizeof(s));
}

void Subgroup::serialize(std::span<u8> out) const {
  if (out.size() != image_.size()) {
    throw std::invalid_argument("Subgroup::serialize: bad buffer size");
  }
  std::memcpy(out.data(), image_.data(), image_.size());
}

void Subgroup::deserialize(std::span<const u8> in) {
  if (in.size() != image_.size()) {
    throw std::invalid_argument("Subgroup::deserialize: bad buffer size");
  }
  if (!header_names(in, id_, sim_params_, elem_scale_)) {
    throw std::runtime_error("Subgroup::deserialize: header mismatch for id " +
                             std::to_string(id_));
  }
  std::memcpy(image_.data(), in.data(), image_.size());
}

void Subgroup::check_loaded_header(u32 prior_step) {
  if (header_names(image_, id_, sim_params_, elem_scale_)) return;
  write_header(prior_step);
  throw std::runtime_error("Subgroup: loaded image has a header mismatch "
                           "for id " + std::to_string(id_));
}

u64 Subgroup::checksum() const {
  // splitmix64 as a finalizer: good avalanche for checksums.
  u64 h = splitmix64(id_ ^ (sim_params_ << 20) ^ step());
  const auto fold = [&h](std::span<const f32> arr) {
    for (const f32 v : arr) {
      u32 bits;
      std::memcpy(&bits, &v, sizeof(bits));
      h = splitmix64(h ^ bits);
    }
  };
  fold(params());
  fold(momentum());
  fold(variance());
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
