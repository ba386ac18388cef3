#include "src/data/statistics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace fxrz {
namespace {

TEST(SummaryStatsTest, KnownValues) {
  Tensor t({5}, {1, 2, 3, 4, 5});
  const SummaryStats s = ComputeSummary(t);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 5.0);
  EXPECT_EQ(s.mean, 3.0);
  EXPECT_EQ(s.value_range, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(SummaryStatsTest, ConstantData) {
  Tensor t({4}, {7, 7, 7, 7});
  const SummaryStats s = ComputeSummary(t);
  EXPECT_EQ(s.value_range, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.mean, 7.0);
}

TEST(PearsonTest, PerfectPositive) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {10, 20, 30}), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegative) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {30, 20, 10}), -1.0, 1e-12);
}

TEST(PearsonTest, ConstantSeriesReturnsZero) {
  EXPECT_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, UncorrelatedNearZero) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 1, 2}, {5, 5, 9, 9}), 0.0, 1e-12);
}

TEST(DistortionTest, IdenticalTensors) {
  Tensor t({3}, {1, 2, 3});
  const DistortionStats d = ComputeDistortion(t, t);
  EXPECT_EQ(d.max_abs_error, 0.0);
  EXPECT_EQ(d.mse, 0.0);
  EXPECT_EQ(d.psnr, 999.0);  // clamped "infinite" PSNR
}

TEST(DistortionTest, KnownError) {
  Tensor a({2}, {0, 2});
  Tensor b({2}, {1, 2});
  const DistortionStats d = ComputeDistortion(a, b);
  EXPECT_EQ(d.max_abs_error, 1.0);
  EXPECT_NEAR(d.mse, 0.5, 1e-12);
  EXPECT_NEAR(d.nrmse, std::sqrt(0.5) / 2.0, 1e-12);
}

TEST(HistogramTest, CountsSumToSize) {
  Tensor t({100});
  for (size_t i = 0; i < 100; ++i) t[i] = static_cast<float>(i);
  const std::vector<size_t> h = Histogram(t, 10);
  size_t total = 0;
  for (size_t c : h) total += c;
  EXPECT_EQ(total, 100u);
  for (size_t c : h) EXPECT_EQ(c, 10u);  // uniform ramp
}

TEST(HistogramTest, ConstantDataAllInOneBin) {
  Tensor t({50});
  std::fill(t.data(), t.data() + t.size(), 3.0f);
  const std::vector<size_t> h = Histogram(t, 4);
  EXPECT_EQ(h[0], 50u);
}

TEST(LocalMaximaTest, FindsSinglePeak) {
  Tensor t({5, 5, 5});
  t.at({2, 2, 2}) = 10.0f;
  const std::vector<size_t> maxima = FindLocalMaxima3D(t, 1.0f);
  ASSERT_EQ(maxima.size(), 1u);
  EXPECT_EQ(maxima[0], t.Offset({2, 2, 2}));
}

TEST(LocalMaximaTest, ThresholdFilters) {
  Tensor t({5, 5, 5});
  t.at({2, 2, 2}) = 10.0f;
  EXPECT_TRUE(FindLocalMaxima3D(t, 20.0f).empty());
}

TEST(LocalMaximaTest, BoundaryPeaksIgnored) {
  Tensor t({5, 5, 5});
  t.at({0, 2, 2}) = 10.0f;  // on the z boundary
  EXPECT_TRUE(FindLocalMaxima3D(t, 1.0f).empty());
}

TEST(MaximaDisplacementTest, UnchangedIsZero) {
  Tensor t({6, 6, 6});
  t.at({2, 2, 2}) = 5.0f;
  t.at({4, 4, 4}) = 7.0f;
  EXPECT_EQ(MaximaDisplacementFraction(t, t, 1.0f), 0.0);
}

TEST(MaximaDisplacementTest, MovedPeakCounts) {
  Tensor a({6, 6, 6});
  a.at({2, 2, 2}) = 5.0f;
  Tensor b({6, 6, 6});
  b.at({3, 3, 3}) = 5.0f;
  EXPECT_EQ(MaximaDisplacementFraction(a, b, 1.0f), 1.0);
}

}  // namespace
}  // namespace fxrz
