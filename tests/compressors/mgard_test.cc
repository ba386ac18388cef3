// MGARD-specific behaviors: multilevel decomposition, offset handling, and
// the conservative error split across levels.

#include <gtest/gtest.h>

#include <cmath>

#include "src/compressors/mgard.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

TEST(MgardTest, LargeOffsetSmallRangeData) {
  // Temperature-like data: huge mean, modest range. The offset subtraction
  // keeps the quantizer in range and the bound intact.
  Tensor t({12, 12, 12});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(1.0e6 + std::sin(0.1 * i));
  }
  MgardCompressor mgard;
  const double eb = 1e-3;
  const std::vector<uint8_t> bytes = mgard.Compress(t, eb).value();
  Tensor rec;
  ASSERT_TRUE(mgard.Decompress(bytes.data(), bytes.size(), &rec).ok());
  // Relative slack: float32 at 1e6 has ~0.06 ulp.
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb + 0.25);
}

TEST(MgardTest, SmoothDataBeatsTinyErrorBudgetSplit) {
  // Even with the conservative per-level error split, smooth data should
  // reach ratios well above raw entropy coding.
  const Tensor g = GaussianRandomField3D(32, 32, 32, 4.0, 901);
  MgardCompressor mgard;
  const double eb = 0.02 * ComputeSummary(g).value_range;
  EXPECT_GT(MeasuredRatio(mgard, g, eb), 3.5);
}

TEST(MgardTest, NonPowerOfTwoAndPrimeDims) {
  Tensor t({7, 13, 11});
  for (size_t z = 0; z < 7; ++z) {
    for (size_t y = 0; y < 13; ++y) {
      for (size_t x = 0; x < 11; ++x) {
        t.at({z, y, x}) = static_cast<float>(std::cos(0.3 * z) * y + 0.1 * x);
      }
    }
  }
  MgardCompressor mgard;
  const double eb = 1e-2;
  const std::vector<uint8_t> bytes = mgard.Compress(t, eb).value();
  Tensor rec;
  ASSERT_TRUE(mgard.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001);
}

TEST(MgardTest, TwoElementDimension) {
  Tensor t({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  MgardCompressor mgard;
  const double eb = 0.01;
  const std::vector<uint8_t> bytes = mgard.Compress(t, eb).value();
  Tensor rec;
  ASSERT_TRUE(mgard.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001);
}

TEST(MgardTest, RatioGrowsAcrossFourDecadesOfErrorBound) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 902);
  MgardCompressor mgard;
  double prev_ratio = 0.0;
  for (double eb : {1e-4, 1e-3, 1e-2, 1e-1}) {
    const double ratio = MeasuredRatio(mgard, g, eb);
    EXPECT_GE(ratio, prev_ratio * 0.98) << eb;
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 3.0);
}

}  // namespace
}  // namespace fxrz
