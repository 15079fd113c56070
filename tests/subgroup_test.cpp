// Subgroup state container: scale reduction, the one-image layout,
// serialization and its pinned format, checksums.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "train/subgroup.hpp"

namespace mlpo {
namespace {

TEST(Subgroup, FullFidelityAllocation) {
  Subgroup sg(3, 1000, 1);
  EXPECT_EQ(sg.id(), 3u);
  EXPECT_EQ(sg.sim_params(), 1000u);
  EXPECT_EQ(sg.real_elems(), 1000u);
  EXPECT_EQ(sg.params().size(), 1000u);
  EXPECT_EQ(sg.momentum().size(), 1000u);
  EXPECT_EQ(sg.variance().size(), 1000u);
}

TEST(Subgroup, ScaleReductionRoundsUp) {
  Subgroup sg(0, 1000, 64);
  EXPECT_EQ(sg.real_elems(), 16u);  // ceil(1000/64)
  Subgroup tiny(0, 5, 1024);
  EXPECT_EQ(tiny.real_elems(), 1u);  // never zero
}

TEST(Subgroup, RejectsBadArguments) {
  EXPECT_THROW(Subgroup(0, 0, 1), std::invalid_argument);
  EXPECT_THROW(Subgroup(0, 100, 0), std::invalid_argument);
}

TEST(Subgroup, SimByteSizesFollowPaperLayout) {
  Subgroup sg(0, 100'000'000, 8192);
  EXPECT_EQ(sg.sim_state_bytes(), 1'200'000'000u);            // 12 B/param
  EXPECT_EQ(sg.sim_state_with_grad_bytes(), 1'600'000'000u);  // 16 B/param
  EXPECT_EQ(sg.sim_fp16_param_bytes(), 200'000'000u);         // 2 B/param
}

TEST(Subgroup, SerializeDeserializeRoundtrip) {
  Subgroup sg(7, 500, 4);
  for (std::size_t i = 0; i < sg.real_elems(); ++i) {
    sg.params()[i] = static_cast<f32>(i) * 0.5f;
    sg.momentum()[i] = static_cast<f32>(i) * -0.25f;
    sg.variance()[i] = static_cast<f32>(i) * 2.0f;
  }
  sg.set_step(42);

  std::vector<u8> buf(sg.serialized_bytes());
  sg.serialize(buf);

  Subgroup other(7, 500, 4);
  other.deserialize(buf);
  EXPECT_EQ(other.step(), 42u);
  EXPECT_EQ(other.checksum(), sg.checksum());
  for (std::size_t i = 0; i < sg.real_elems(); ++i) {
    EXPECT_EQ(other.params()[i], sg.params()[i]);
    EXPECT_EQ(other.momentum()[i], sg.momentum()[i]);
    EXPECT_EQ(other.variance()[i], sg.variance()[i]);
  }
}

TEST(Subgroup, DeserializeRejectsWrongBufferSize) {
  Subgroup sg(0, 100, 1);
  std::vector<u8> small(10);
  EXPECT_THROW(sg.deserialize(small), std::invalid_argument);
  std::vector<u8> wrong(sg.serialized_bytes());
  EXPECT_THROW(sg.serialize(std::span<u8>(wrong).subspan(1)),
               std::invalid_argument);
}

TEST(Subgroup, DeserializeRejectsHeaderMismatch) {
  Subgroup a(1, 100, 1);
  std::vector<u8> buf(a.serialized_bytes());
  a.serialize(buf);

  Subgroup wrong_id(2, 100, 1);
  EXPECT_THROW(wrong_id.deserialize(buf), std::runtime_error);

  Subgroup wrong_scale(1, 100, 2);
  // Different scale means different sizes -> size check trips first.
  EXPECT_THROW(wrong_scale.deserialize(buf), std::exception);
}

TEST(Subgroup, ChecksumDetectsSingleBitChange) {
  Subgroup a(0, 256, 1);
  for (std::size_t i = 0; i < 256; ++i) a.params()[i] = static_cast<f32>(i);
  const u64 before = a.checksum();
  a.params()[100] = std::nextafter(a.params()[100], 1e9f);  // one ulp
  EXPECT_NE(a.checksum(), before);
}

TEST(Subgroup, ChecksumDependsOnStepAndIdentity) {
  Subgroup a(0, 64, 1);
  Subgroup b(1, 64, 1);
  EXPECT_NE(a.checksum(), b.checksum());
  const u64 s0 = a.checksum();
  a.set_step(1);
  EXPECT_NE(a.checksum(), s0);
}

TEST(Subgroup, InitAndChecksumGoldenDigestsPinned) {
  // Recorded before the two splitmix64 copies (init, checksum) were
  // merged; the checksum folds every initialised parameter, so it pins
  // deterministic_param_init bit for bit as well.
  const std::pair<int, u32> kCoords[] = {{0, 0}, {1, 7}, {3, 123456}};
  const u64 kGolden[] = {0x0394AA5993926B53ull, 0xAF808E2E417A5848ull,
                         0x40A7260A996661B2ull};
  for (std::size_t c = 0; c < 3; ++c) {
    const auto [rank, id] = kCoords[c];
    Subgroup sg(id, 1000, 1);
    Subgroup::deterministic_param_init(rank, id, sg.params());
    EXPECT_EQ(sg.checksum(), kGolden[c]) << "rank=" << rank << " id=" << id;
  }
}

TEST(Subgroup, SerializedBytesGoldenDigestPinned) {
  // The on-tier object format: a 32-byte header (magic, id, sim_params,
  // elem_scale, step, reserved) followed by params, momentum and variance.
  // Recorded when the state still lived in three separate arrays; tier
  // objects and checkpoints written before and after the subgroup became
  // one image must stay byte-identical.
  Subgroup sg(7, 500, 4);
  for (std::size_t i = 0; i < sg.real_elems(); ++i) {
    sg.params()[i] = static_cast<f32>(i) * 0.5f;
    sg.momentum()[i] = static_cast<f32>(i) * -0.25f;
    sg.variance()[i] = static_cast<f32>(i) * 2.0f;
  }
  sg.set_step(42);
  std::vector<u8> buf(sg.serialized_bytes());
  sg.serialize(buf);
  u64 fnv = 0xCBF29CE484222325ull;  // FNV-1a over the serialized bytes
  for (const u8 b : buf) fnv = (fnv ^ b) * 0x100000001B3ull;
  EXPECT_EQ(buf.size(), 1532u);
  EXPECT_EQ(fnv, 0xD19C047C92FDBFFCull);
  // The image is the serialized form, byte for byte.
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), sg.image().begin(),
                         sg.image().end()));
}

TEST(Subgroup, ViewsAreSubspansOfOneImage) {
  Subgroup sg(3, 100, 1);
  const u8* base = sg.image().data();
  EXPECT_EQ(sg.image().size(), Subgroup::image_bytes(100, 1));
  EXPECT_EQ(reinterpret_cast<const u8*>(sg.params().data()),
            base + Subgroup::kHeaderBytes);
  EXPECT_EQ(sg.momentum().data(), sg.params().data() + 100);
  EXPECT_EQ(sg.variance().data(), sg.momentum().data() + 100);
  EXPECT_EQ(sg.state().data(), sg.params().data());
  EXPECT_EQ(sg.state().size(), 300u);
}

TEST(Subgroup, BorrowedImageAndOwningCopies) {
  std::vector<u8> slab(Subgroup::image_bytes(64, 1));
  Subgroup borrowed(5, 64, 1, slab);
  EXPECT_EQ(borrowed.image().data(), slab.data());
  borrowed.params()[0] = 1.5f;
  borrowed.set_step(9);
  EXPECT_THROW(Subgroup(5, 64, 1, std::span<u8>(slab).subspan(1)),
               std::invalid_argument);

  const Subgroup copy(borrowed);  // owns its memory
  EXPECT_NE(copy.image().data(), slab.data());
  EXPECT_EQ(copy.checksum(), borrowed.checksum());
  borrowed.params()[0] = 2.5f;
  EXPECT_EQ(copy.params()[0], 1.5f);
  EXPECT_EQ(copy.step(), 9u);
}

TEST(Subgroup, HeaderMismatchedLoadThrowsAndKeepsIdentity) {
  Subgroup donor(2, 100, 1);
  donor.set_step(11);
  std::vector<u8> foreign(donor.serialized_bytes());
  donor.serialize(foreign);

  Subgroup sg(1, 100, 1);
  sg.set_step(5);
  sg.params()[3] = 4.0f;
  const u64 before = sg.checksum();
  EXPECT_THROW(sg.deserialize(foreign), std::runtime_error);
  EXPECT_EQ(sg.id(), 1u);
  EXPECT_EQ(sg.step(), 5u);
  EXPECT_EQ(sg.checksum(), before);

  // A transfer that wrote a foreign object straight into the image.
  std::copy(foreign.begin(), foreign.end(), sg.image().begin());
  try {
    sg.check_loaded_header(5);
    ADD_FAILURE() << "a foreign header was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("header mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(sg.id(), 1u);
  EXPECT_EQ(sg.step(), 5u);
  // The restored header is this subgroup's own again.
  std::vector<u8> own(sg.serialized_bytes());
  sg.serialize(own);
  Subgroup reload(1, 100, 1);
  EXPECT_NO_THROW(reload.deserialize(own));
  EXPECT_EQ(reload.step(), 5u);
}

TEST(Subgroup, StorageKeyFormat) {
  EXPECT_EQ(Subgroup::key(2, 17), "sg/2/17");
  EXPECT_EQ(Subgroup::key(0, 0), "sg/0/0");
}

}  // namespace
}  // namespace mlpo
