// SZ3-specific behaviors: the multi-level interpolation schedule and its
// strengths on smooth data.

#include <gtest/gtest.h>

#include <cmath>

#include "src/compressors/sz3.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

TEST(Sz3Test, ScheduleCoversOddAndPrimeDims) {
  // The interpolation schedule must visit every point exactly once (the
  // compressor CHECKs this internally); exercise awkward extents.
  for (const std::vector<size_t>& dims :
       {std::vector<size_t>{17}, std::vector<size_t>{5, 9},
        std::vector<size_t>{7, 11, 13}, std::vector<size_t>{2, 3, 5, 7}}) {
    Tensor t(dims);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(std::sin(0.17 * i));
    }
    Sz3Compressor sz3;
    const double eb = 1e-3;
    const std::vector<uint8_t> bytes = sz3.Compress(t, eb).value();
    Tensor rec;
    ASSERT_TRUE(sz3.Decompress(bytes.data(), bytes.size(), &rec).ok());
    EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001)
        << t.ShapeString();
  }
}

TEST(Sz3Test, CubicSplineDataNearlyFree) {
  // Values lying on a cubic polynomial are predicted almost exactly by the
  // 4-point spline: codes collapse and the ratio soars.
  Tensor t({64, 32});
  for (size_t y = 0; y < 64; ++y) {
    for (size_t x = 0; x < 32; ++x) {
      const double u = y / 64.0, v = x / 32.0;
      t.at({y, x}) = static_cast<float>(u * u * u - 2 * u * v + v * v);
    }
  }
  Sz3Compressor sz3;
  const double eb = 1e-4 * ComputeSummary(t).value_range;
  EXPECT_GT(MeasuredRatio(sz3, t, eb), 5.0);
}

TEST(Sz3Test, CompetitiveWithHighRatiosOnSmoothFields) {
  const Tensor g = GaussianRandomField3D(32, 32, 32, 4.0, 921);
  Sz3Compressor sz3;
  const double eb = 0.05 * ComputeSummary(g).value_range;
  EXPECT_GT(MeasuredRatio(sz3, g, eb), 15.0);
}

TEST(Sz3Test, ErrorsDoNotAccumulateAcrossLevels) {
  // Unlike transform coders, interpolation prediction on reconstructed
  // values gives a per-element bound with no level-count dependence: check
  // at a large grid with many levels.
  const Tensor g = GaussianRandomField3D(64, 64, 16, 3.0, 922);
  Sz3Compressor sz3;
  const double eb = 0.01;
  const std::vector<uint8_t> bytes = sz3.Compress(g, eb).value();
  Tensor rec;
  ASSERT_TRUE(sz3.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(g, rec).max_abs_error, eb * 1.0001);
}

TEST(Sz3Test, SingleElementTensor) {
  Tensor t({1}, {42.0f});
  Sz3Compressor sz3;
  const std::vector<uint8_t> bytes = sz3.Compress(t, 0.1).value();
  Tensor rec;
  ASSERT_TRUE(sz3.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_NEAR(rec[0], 42.0f, 0.1001);
}

}  // namespace
}  // namespace fxrz
