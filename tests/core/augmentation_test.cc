#include "src/core/augmentation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

ConfigSpace LogSpace() {
  ConfigSpace s;
  s.min = 1e-4;
  s.max = 1.0;
  s.log_scale = true;
  s.ratio_increases = true;
  return s;
}

TEST(StationaryPointsTest, SpanConfigSpaceAndAreMonotone) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 81);
  const auto sz = MakeCompressor("sz");
  AugmentationOptions opts;
  opts.num_stationary_points = 10;
  const auto points = CollectStationaryPoints(*sz, g, opts);
  ASSERT_EQ(points.size(), 10u);
  const ConfigSpace space = sz->config_space(ValueRange(g));
  EXPECT_NEAR(points.front().config, space.min, space.min * 1e-6);
  EXPECT_NEAR(points.back().config, space.max, space.max * 1e-6);
  // Ratio grows (weakly) with the error bound.
  EXPECT_GT(points.back().ratio, points.front().ratio);
}

TEST(StationaryPointsTest, IntegerSpaceDeduplicates) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 82);
  const auto fpzip = MakeCompressor("fpzip");
  AugmentationOptions opts;
  opts.num_stationary_points = 60;  // more than distinct precisions
  const auto points = CollectStationaryPoints(*fpzip, g, opts);
  EXPECT_LE(points.size(), 29u);  // 4..32
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_NE(points[i].config, points[i - 1].config);
  }
}

TEST(RatioConfigCurveTest, InterpolatesExactlyAtKnots) {
  RatioConfigCurve curve({{1e-3, 10.0}, {1e-2, 50.0}, {1e-1, 200.0}},
                         LogSpace());
  EXPECT_NEAR(curve.ConfigForRatio(10.0), 1e-3, 1e-9);
  EXPECT_NEAR(curve.ConfigForRatio(50.0), 1e-2, 1e-8);
  EXPECT_NEAR(curve.ConfigForRatio(200.0), 1e-1, 1e-7);
}

TEST(RatioConfigCurveTest, LogDomainMidpoint) {
  RatioConfigCurve curve({{1e-3, 10.0}, {1e-1, 20.0}}, LogSpace());
  // Halfway in ratio maps to the log-midpoint of configs.
  EXPECT_NEAR(curve.ConfigForRatio(15.0), 1e-2, 1e-6);
}

TEST(RatioConfigCurveTest, ClampsOutOfRangeRatios) {
  RatioConfigCurve curve({{1e-3, 10.0}, {1e-1, 100.0}}, LogSpace());
  EXPECT_NEAR(curve.ConfigForRatio(1.0), 1e-3, 1e-9);
  EXPECT_NEAR(curve.ConfigForRatio(1e9), 1e-1, 1e-7);
}

TEST(RatioConfigCurveTest, EnforcesMonotonicityOnNoisyPoints) {
  // Middle point dips below its left neighbor; the curve flattens it.
  RatioConfigCurve curve({{1e-3, 50.0}, {1e-2, 40.0}, {1e-1, 100.0}},
                         LogSpace());
  EXPECT_EQ(curve.min_ratio(), 50.0);
  EXPECT_EQ(curve.max_ratio(), 100.0);
}

TEST(RatioConfigCurveTest, DecreasingSpaces) {
  // FPZIP-like: ratio decreases as the (integer, linear) knob grows.
  ConfigSpace space;
  space.min = 4;
  space.max = 32;
  space.log_scale = false;
  space.integer = true;
  space.ratio_increases = false;
  RatioConfigCurve curve({{4, 100.0}, {16, 20.0}, {32, 4.0}}, space);
  EXPECT_EQ(curve.min_ratio(), 4.0);
  EXPECT_EQ(curve.max_ratio(), 100.0);
  EXPECT_EQ(curve.ConfigForRatio(100.0), 4.0);
  EXPECT_EQ(curve.ConfigForRatio(4.0), 32.0);
  const double mid = curve.ConfigForRatio(20.0);
  EXPECT_EQ(mid, 16.0);
}

TEST(RatioConfigCurveTest, RatioForConfigInverts) {
  RatioConfigCurve curve({{1e-3, 10.0}, {1e-2, 50.0}, {1e-1, 200.0}},
                         LogSpace());
  for (double r : {12.0, 30.0, 80.0, 150.0}) {
    const double cfg = curve.ConfigForRatio(r);
    EXPECT_NEAR(curve.RatioForConfig(cfg), r, 1e-6) << r;
  }
}

TEST(RatioConfigCurveTest, SampleUniformRatiosCoversRange) {
  RatioConfigCurve curve({{1e-3, 10.0}, {1e-1, 1000.0}}, LogSpace());
  const auto samples = curve.SampleUniformRatios(20);
  ASSERT_EQ(samples.size(), 20u);
  double lo = samples[0].ratio, hi = samples[0].ratio;
  int below_100 = 0;
  for (const auto& s : samples) {
    lo = std::min(lo, s.ratio);
    hi = std::max(hi, s.ratio);
    EXPECT_GE(s.config, 1e-3);
    EXPECT_LE(s.config, 1e-1);
    if (s.ratio < 100.0) ++below_100;
  }
  EXPECT_NEAR(lo, 10.0, 1e-6);
  EXPECT_NEAR(hi, 1000.0, 1e-6);
  // Log-spaced half guarantees real coverage of the low-ratio decade.
  EXPECT_GE(below_100, 5);
}

TEST(ProbeValidTargetRatiosTest, TargetsInsideAchievableRange) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 83);
  const auto sz = MakeCompressor("sz");
  const auto targets = ProbeValidTargetRatios(*sz, g, 5);
  ASSERT_EQ(targets.size(), 5u);
  const auto points = CollectStationaryPoints(*sz, g);
  double lo = 1e300, hi = 0;
  for (const auto& p : points) {
    lo = std::min(lo, p.ratio);
    hi = std::max(hi, p.ratio);
  }
  for (double t : targets) {
    EXPECT_GE(t, lo * 0.99);
    EXPECT_LE(t, hi * 1.01);
  }
  EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
}

}  // namespace
}  // namespace fxrz
