#include "src/data/tensor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace fxrz {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.rank(), 0u);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({3, 4, 5});
  EXPECT_EQ(t.size(), 60u);
  EXPECT_EQ(t.size_bytes(), 240u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, TakesOwnershipOfValues) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 2}), 3.0f);
  EXPECT_EQ(t.at({1, 0}), 4.0f);
  EXPECT_EQ(t.at({1, 2}), 6.0f);
}

TEST(TensorTest, OffsetRowMajorLastFastest) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.Offset({0, 0, 0}), 0u);
  EXPECT_EQ(t.Offset({0, 0, 3}), 3u);
  EXPECT_EQ(t.Offset({0, 1, 0}), 4u);
  EXPECT_EQ(t.Offset({1, 0, 0}), 12u);
  EXPECT_EQ(t.Offset({1, 2, 3}), 23u);
}

TEST(TensorTest, StridesMatchOffsets) {
  Tensor t({2, 3, 4});
  const std::vector<size_t> s = t.Strides();
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 12u);
  EXPECT_EQ(s[1], 4u);
  EXPECT_EQ(s[2], 1u);
}

TEST(TensorTest, Rank4Supported) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.size(), 120u);
  EXPECT_EQ(t.Offset({1, 2, 3, 4}), 119u);
}

TEST(TensorTest, MutationThroughAt) {
  Tensor t({2, 2});
  t.at({1, 1}) = 42.0f;
  EXPECT_EQ(t[3], 42.0f);
}

TEST(TensorTest, SameAsComparesShapeAndValues) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {1, 2, 3, 4});
  Tensor c({4}, {1, 2, 3, 4});
  Tensor d({2, 2}, {1, 2, 3, 5});
  EXPECT_TRUE(a.SameAs(b));
  EXPECT_FALSE(a.SameAs(c));  // same data, different shape
  EXPECT_FALSE(a.SameAs(d));
}

TEST(TensorTest, SameAsComparesBits) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor pos({2}, {0.0f, 1.0f});
  const Tensor neg({2}, {-0.0f, 1.0f});
  EXPECT_FALSE(pos.SameAs(neg));  // +0 == -0 as floats, not as bits
  const Tensor a({2}, {nan, 1.0f});
  const Tensor b({2}, {nan, 1.0f});
  EXPECT_TRUE(a.SameAs(b));  // NaN != NaN as floats, equal as bits
  EXPECT_TRUE(Tensor().SameAs(Tensor()));
}

TEST(TensorTest, ForOverwriteHasTheShapeAndCopiesCompareSame) {
  Tensor t = Tensor::ForOverwrite({3, 4});
  EXPECT_EQ(t.dims(), (std::vector<size_t>{3, 4}));
  EXPECT_EQ(t.size(), 12u);
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i) - 5.5f;
  const Tensor copy = t;
  EXPECT_TRUE(copy.SameAs(t));
  Tensor assigned({1});
  assigned = t;
  EXPECT_TRUE(assigned.SameAs(t));
}

// In sanitizer builds every buffer a decoder writes first starts as 0xFF
// bytes (a NaN for float), so an element a decoder skips changes the
// decoded result; elsewhere the elements are left unset.
TEST(TensorTest, SanitizerBuildsPoisonOverwriteBuffers) {
  if (!kPoisonOverwrite) GTEST_SKIP() << "not a sanitizer build";
  const Tensor t = Tensor::ForOverwrite({5, 7});
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_TRUE(std::isnan(t[i])) << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(t[i]), 0xFFFFFFFFu) << i;
  }
  OverwriteVector<uint32_t> codes;
  codes.resize(33);
  for (const uint32_t c : codes) EXPECT_EQ(c, 0xFFFFFFFFu);
  OverwriteVector<uint8_t> body(17);
  for (const uint8_t b : body) EXPECT_EQ(b, 0xFFu);
}

TEST(TensorTest, ShapeString) {
  EXPECT_EQ(Tensor({512, 512, 512}).ShapeString(), "512x512x512");
  EXPECT_EQ(Tensor({7}).ShapeString(), "7");
}

TEST(TensorDeathTest, RejectsZeroExtent) {
  EXPECT_DEATH(Tensor({3, 0, 2}), "");
}

TEST(TensorDeathTest, RejectsSizeMismatch) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f, 2.0f}), "");
}

TEST(TensorDeathTest, RejectsRankFive) {
  EXPECT_DEATH(Tensor({2, 2, 2, 2, 2}), "");
}

}  // namespace
}  // namespace fxrz
