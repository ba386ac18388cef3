#include "src/core/features.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/data/generators/grf.h"
#include "src/util/random.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

TEST(FeaturesTest, ConstantDataAllDifferencesZero) {
  Tensor t({8, 8, 8});
  for (size_t i = 0; i < t.size(); ++i) t[i] = 2.5f;
  const FeatureVector f = ExtractFeatures(t, {.stride = 1});
  EXPECT_EQ(f.value_range, 0.0);
  EXPECT_EQ(f.mean_value, 2.5);
  EXPECT_EQ(f.mnd, 0.0);
  EXPECT_EQ(f.mld, 0.0);
  EXPECT_EQ(f.msd, 0.0);
  EXPECT_EQ(f.mean_gradient, 0.0);
  EXPECT_EQ(f.max_gradient, 0.0);
}

TEST(FeaturesTest, LinearRampHasZeroLorenzoAndSplineError) {
  // A perfectly linear field is predicted exactly by both the Lorenzo
  // stencil and the 4-point spline.
  Tensor t({16, 16});
  for (size_t y = 0; y < 16; ++y) {
    for (size_t x = 0; x < 16; ++x) {
      t.at({y, x}) = static_cast<float>(2.0 * y + 3.0 * x);
    }
  }
  const FeatureVector f = ExtractFeatures(t, {.stride = 1});
  EXPECT_NEAR(f.mld, 0.0, 1e-5);
  EXPECT_NEAR(f.msd, 0.0, 1e-4);
  EXPECT_GT(f.mnd, 0.0);  // boundary-asymmetric neighbor means differ
}

TEST(FeaturesTest, RangeAndMeanMatchSummary) {
  Rng rng(71);
  Tensor t({20, 20});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-5, 10));
  }
  const FeatureVector f = ExtractFeatures(t, {.stride = 1});
  double lo = t[0], hi = t[0], sum = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    lo = std::min<double>(lo, t[i]);
    hi = std::max<double>(hi, t[i]);
    sum += t[i];
  }
  EXPECT_NEAR(f.value_range, hi - lo, 1e-6);
  EXPECT_NEAR(f.mean_value, sum / t.size(), 1e-6);
}

TEST(FeaturesTest, RougherFieldHasLargerDifferences) {
  const Tensor smooth = GaussianRandomField3D(32, 32, 32, 4.0, 5);
  const Tensor rough = GaussianRandomField3D(32, 32, 32, 1.0, 5);
  const FeatureVector fs = ExtractFeatures(smooth, {.stride = 1});
  const FeatureVector fr = ExtractFeatures(rough, {.stride = 1});
  EXPECT_GT(fr.mnd, fs.mnd);
  EXPECT_GT(fr.mld, fs.mld);
  EXPECT_GT(fr.msd, fs.msd);
  EXPECT_GT(fr.mean_gradient, fs.mean_gradient);
}

TEST(FeaturesTest, StridedSamplingApproximatesFullScan) {
  // Sec. V-F1: stride-4 features stay close to full-scan features.
  const Tensor g = GaussianRandomField3D(64, 64, 64, 3.0, 6);
  const FeatureVector full = ExtractFeatures(g, {.stride = 1});
  const FeatureVector strided = ExtractFeatures(g, {.stride = 4});
  EXPECT_NEAR(strided.mean_value, full.mean_value, 0.05);
  // Range shrinks slightly under subsampling but stays comparable.
  EXPECT_GT(strided.value_range, 0.6 * full.value_range);
  // Differences measured on a stride-4 grid are correlated with, though
  // larger than, the fine-grid ones (coarser spacing); same order.
  EXPECT_GT(strided.mnd, full.mnd * 0.5);
  EXPECT_LT(strided.mnd, full.mnd * 20.0);
}

TEST(FeaturesTest, Rank1And4Supported) {
  Tensor t1({100});
  for (size_t i = 0; i < 100; ++i) t1[i] = std::sin(0.1f * i);
  const FeatureVector f1 = ExtractFeatures(t1, {.stride = 1});
  EXPECT_GT(f1.mld, 0.0);

  Tensor t4({2, 8, 8, 8});
  for (size_t i = 0; i < t4.size(); ++i) t4[i] = std::cos(0.05f * i);
  const FeatureVector f4 = ExtractFeatures(t4, {.stride = 2});
  EXPECT_GT(f4.value_range, 0.0);
}

TEST(FeaturesTest, ModelInputsAreFiveLogCompressedValues) {
  FeatureVector f;
  f.value_range = 999.0;
  f.mean_value = -99.0;
  f.mnd = 0.0;
  f.mld = 1.0;
  f.msd = 9.0;
  const std::vector<double> in = FeatureModelInputs(f);
  ASSERT_EQ(in.size(), 5u);
  EXPECT_NEAR(in[0], std::log10(999.0), 1e-6);
  EXPECT_NEAR(in[1], -2.0, 1e-6);  // -log10(1+99)
  EXPECT_LT(in[2], -10.0);         // log10(eps)
  EXPECT_NEAR(in[3], 0.0, 1e-6);
  EXPECT_NEAR(in[4], std::log10(9.0), 1e-3);
}

TEST(FeaturesTest, FeatureByNameCoversAllNames) {
  FeatureVector f;
  f.value_range = 1;
  f.mean_value = 2;
  f.mnd = 3;
  f.mld = 4;
  f.msd = 5;
  f.mean_gradient = 6;
  f.min_gradient = 7;
  f.max_gradient = 8;
  double expected = 1.0;
  for (const std::string& name : AllFeatureNames()) {
    EXPECT_EQ(FeatureByName(f, name), expected) << name;
    expected += 1.0;
  }
}

TEST(FeaturesDeathTest, UnknownNameAborts) {
  FeatureVector f;
  EXPECT_DEATH(FeatureByName(f, "entropy"), "");
}

// --- Fused-kernel determinism and cross-checks -----------------------------

Tensor WavyTensor(std::vector<size_t> dims) {
  Tensor t(std::move(dims));
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = std::sin(0.013f * static_cast<float>(i)) +
           0.3f * std::cos(0.07f * static_cast<float>(i));
  }
  return t;
}

void ExpectBitIdentical(const FeatureVector& a, const FeatureVector& b) {
  EXPECT_EQ(a.value_range, b.value_range);
  EXPECT_EQ(a.mean_value, b.mean_value);
  EXPECT_EQ(a.mnd, b.mnd);
  EXPECT_EQ(a.mld, b.mld);
  EXPECT_EQ(a.msd, b.msd);
  EXPECT_EQ(a.mean_gradient, b.mean_gradient);
  EXPECT_EQ(a.min_gradient, b.min_gradient);
  EXPECT_EQ(a.max_gradient, b.max_gradient);
}

TEST(FeaturesDeterminismTest, ParallelMatchesSerialBitwise) {
  // Odd, non-power-of-two shapes so slab boundaries land mid-structure.
  const std::vector<std::vector<size_t>> shapes = {
      {1009}, {61, 53}, {23, 19, 29}, {3, 11, 13, 17}};
  for (const auto& shape : shapes) {
    const Tensor t = WavyTensor(shape);
    for (size_t stride : {size_t{1}, size_t{3}, size_t{4}}) {
      FeatureVector serial;
      WithWorkersParked(
          [&] { serial = ExtractFeatures(t, {.stride = stride}); });
      const FeatureVector parallel = ExtractFeatures(t, {.stride = stride});
      SCOPED_TRACE("rank=" + std::to_string(shape.size()) +
                   " stride=" + std::to_string(stride));
      ExpectBitIdentical(serial, parallel);
    }
  }
}

TEST(FeaturesDeterminismTest, RepeatedParallelRunsAreStable) {
  const Tensor t = WavyTensor({37, 41, 43});
  const FeatureVector first = ExtractFeatures(t, {.stride = 2});
  for (int rep = 0; rep < 5; ++rep) {
    ExpectBitIdentical(first, ExtractFeatures(t, {.stride = 2}));
  }
}

TEST(FeaturesDeterminismTest, FusedMatchesReferenceImplementation) {
  // The fused kernel visits the same sample points with the same stencils
  // as the legacy multi-pass extractor; only the global summation grouping
  // differs, so all features agree to tight relative tolerance.
  const std::vector<std::vector<size_t>> shapes = {
      {500}, {40, 37}, {20, 24, 31}, {2, 9, 10, 11}};
  for (const auto& shape : shapes) {
    const Tensor t = WavyTensor(shape);
    for (size_t stride : {size_t{1}, size_t{4}}) {
      const FeatureVector fused = ExtractFeatures(t, {.stride = stride});
      const FeatureVector ref =
          ExtractFeaturesReference(t, {.stride = stride});
      SCOPED_TRACE("rank=" + std::to_string(shape.size()) +
                   " stride=" + std::to_string(stride));
      EXPECT_NEAR(fused.value_range, ref.value_range, 1e-12);
      EXPECT_NEAR(fused.mean_value, ref.mean_value,
                  1e-10 * (1.0 + std::fabs(ref.mean_value)));
      EXPECT_NEAR(fused.mnd, ref.mnd, 1e-10 * (1.0 + ref.mnd));
      EXPECT_NEAR(fused.mld, ref.mld, 1e-10 * (1.0 + ref.mld));
      EXPECT_NEAR(fused.msd, ref.msd, 1e-10 * (1.0 + ref.msd));
      EXPECT_NEAR(fused.mean_gradient, ref.mean_gradient,
                  1e-10 * (1.0 + ref.mean_gradient));
      EXPECT_EQ(fused.min_gradient, ref.min_gradient);
      EXPECT_EQ(fused.max_gradient, ref.max_gradient);
    }
  }
}

}  // namespace
}  // namespace fxrz
