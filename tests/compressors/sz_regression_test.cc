// SZ2-specific behavior: the per-block choice between the Lorenzo and
// linear-regression predictors.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/compressors/sz.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/random.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

TEST(SzRegressionTest, PiecewisePlanarDataCompressesExtremely) {
  // Piecewise-linear ramps are captured exactly by the regression
  // predictor: every quantization code collapses to zero.
  Tensor t({24, 24, 24});
  for (size_t z = 0; z < 24; ++z) {
    for (size_t y = 0; y < 24; ++y) {
      for (size_t x = 0; x < 24; ++x) {
        t.at({z, y, x}) = static_cast<float>(0.5 * z - 0.25 * y + 2.0 * x);
      }
    }
  }
  SzCompressor sz;
  const double eb = 1e-3 * ComputeSummary(t).value_range;
  const double ratio = MeasuredRatio(sz, t, eb);
  EXPECT_GT(ratio, 100.0);

  const std::vector<uint8_t> bytes = sz.Compress(t, eb).value();
  Tensor rec;
  ASSERT_TRUE(sz.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001);
}

TEST(SzRegressionTest, NoisyDataStillBounded) {
  // Pure noise defeats both predictors; the bound must hold regardless of
  // which one the selection heuristic picks.
  Rng rng(601);
  Tensor t({20, 20, 20});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.NextGaussian() * 100.0);
  }
  SzCompressor sz;
  for (double rel : {1e-4, 1e-2}) {
    const double eb = rel * ComputeSummary(t).value_range;
    const std::vector<uint8_t> bytes = sz.Compress(t, eb).value();
    Tensor rec;
    ASSERT_TRUE(sz.Decompress(bytes.data(), bytes.size(), &rec).ok());
    EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001);
  }
}

TEST(SzRegressionTest, MixedContentBeatsLorenzoOnlyBaseline) {
  // A field with large smooth gradients: regression should give SZ2 a
  // materially better ratio than what high-frequency content alone allows.
  Tensor t({24, 24, 24});
  Rng rng(602);
  for (size_t z = 0; z < 24; ++z) {
    for (size_t y = 0; y < 24; ++y) {
      for (size_t x = 0; x < 24; ++x) {
        t.at({z, y, x}) =
            static_cast<float>(10.0 * z + 0.01 * rng.NextGaussian());
      }
    }
  }
  SzCompressor sz;
  const double eb = 0.05;  // noise amplitude >> eb: noise must be coded
  const double ratio = MeasuredRatio(sz, t, eb);
  // The strong z-ramp is absorbed by the plane fit; codes stay tiny.
  EXPECT_GT(ratio, 10.0);
}

TEST(SzRegressionTest, BlockSmallerThanSixHandled) {
  // Extents below the 6^d block size exercise partial-block fitting.
  Tensor t({5, 3, 7});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.2 * i));
  }
  SzCompressor sz;
  const double eb = 1e-3;
  const std::vector<uint8_t> bytes = sz.Compress(t, eb).value();
  Tensor rec;
  ASSERT_TRUE(sz.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, eb * 1.0001);
}

TEST(SzRegressionTest, SmootherFieldsCompressBetterAtEqualAbsoluteBound) {
  // Both fields are unit variance; at the same absolute bound only
  // smoothness (predictability) differs.
  const Tensor smooth = GaussianRandomField3D(32, 32, 32, 5.0, 603);
  const Tensor rough = GaussianRandomField3D(32, 32, 32, 0.5, 604);
  SzCompressor sz;
  const double eb = 0.1;
  EXPECT_GT(MeasuredRatio(sz, smooth, eb),
            1.3 * MeasuredRatio(sz, rough, eb));
}

}  // namespace
}  // namespace fxrz
