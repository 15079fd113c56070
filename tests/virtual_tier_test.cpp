// Multi-path virtual tier: routing, migration between paths, residency
// accounting, bandwidth vector.
#include <gtest/gtest.h>

#include "tiers/memory_tier.hpp"
#include "tiers/virtual_tier.hpp"

namespace mlpo {
namespace {

std::vector<u8> make_data(std::size_t n, u8 seed = 1) {
  std::vector<u8> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<u8>(seed + i);
  return v;
}

class VirtualTierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    nvme_ = std::make_shared<MemoryTier>("nvme", 6.9e9, 5.3e9);
    pfs_ = std::make_shared<MemoryTier>("pfs", 3.6e9, 3.6e9);
    vtier_.add_path(nvme_);
    vtier_.add_path(pfs_);
  }

  std::shared_ptr<MemoryTier> nvme_;
  std::shared_ptr<MemoryTier> pfs_;
  VirtualTier vtier_;
};

TEST_F(VirtualTierTest, WritesRouteToChosenPath) {
  vtier_.write_to(0, "a", make_data(10));
  vtier_.write_to(1, "b", make_data(20));
  EXPECT_TRUE(nvme_->exists("a"));
  EXPECT_FALSE(pfs_->exists("a"));
  EXPECT_TRUE(pfs_->exists("b"));
  EXPECT_EQ(vtier_.locate("a"), 0u);
  EXPECT_EQ(vtier_.locate("b"), 1u);
}

TEST_F(VirtualTierTest, ReadsRouteAutomatically) {
  const auto data = make_data(32, 5);
  vtier_.write_to(1, "k", data);
  std::vector<u8> out(32);
  vtier_.read("k", out);
  EXPECT_EQ(out, data);
}

TEST_F(VirtualTierTest, RewriteToDifferentPathMigratesObject) {
  vtier_.write_to(0, "k", make_data(10));
  vtier_.write_to(1, "k", make_data(12, 3));
  EXPECT_EQ(vtier_.locate("k"), 1u);
  EXPECT_FALSE(nvme_->exists("k")) << "stale copy must be removed";
  std::vector<u8> out(12);
  vtier_.read("k", out);
  EXPECT_EQ(out, make_data(12, 3));
}

TEST_F(VirtualTierTest, UnknownKeysThrowAndLocateReturnsNpos) {
  std::vector<u8> out(4);
  EXPECT_THROW(vtier_.read("nope", out), std::out_of_range);
  EXPECT_THROW(vtier_.peek("nope", out), std::out_of_range);
  EXPECT_EQ(vtier_.locate("nope"), VirtualTier::npos);
  EXPECT_FALSE(vtier_.exists("nope"));
}

TEST_F(VirtualTierTest, BadPathIndexThrows) {
  EXPECT_THROW(vtier_.write_to(7, "k", make_data(4)), std::out_of_range);
}

TEST_F(VirtualTierTest, EraseRemovesObjectAndLocation) {
  vtier_.write_to(0, "k", make_data(8));
  vtier_.erase("k");
  EXPECT_FALSE(vtier_.exists("k"));
  EXPECT_FALSE(nvme_->exists("k"));
  vtier_.erase("k");  // idempotent
}

TEST_F(VirtualTierTest, PathBandwidthsAreMinOfReadWrite) {
  const auto bws = vtier_.path_bandwidths();
  ASSERT_EQ(bws.size(), 2u);
  EXPECT_DOUBLE_EQ(bws[0], 5.3e9);  // min(6.9, 5.3)
  EXPECT_DOUBLE_EQ(bws[1], 3.6e9);
}

TEST_F(VirtualTierTest, EveryPathGetsPerDirectionLocks) {
  EXPECT_NE(vtier_.path_read_lock(0), nullptr);
  EXPECT_NE(vtier_.path_write_lock(0), nullptr);
  EXPECT_NE(vtier_.path_read_lock(0), vtier_.path_write_lock(0));
  EXPECT_NE(vtier_.path_read_lock(0), vtier_.path_read_lock(1));
  EXPECT_NE(vtier_.path_write_lock(0), vtier_.path_write_lock(1));
}

TEST_F(VirtualTierTest, PeekReturnsContent) {
  const auto data = make_data(16, 9);
  vtier_.write_to(0, "k", data, 100);
  std::vector<u8> out(16);
  vtier_.peek("k", out);
  EXPECT_EQ(out, data);
}

}  // namespace
}  // namespace mlpo
