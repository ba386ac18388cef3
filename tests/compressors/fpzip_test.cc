// FPZIP-specific behaviors: the precision ladder, losslessness at full
// precision, and ordered-integer mapping properties.

#include <gtest/gtest.h>

#include <cmath>

#include "src/compressors/fpzip.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/random.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

TEST(FpzipTest, LosslessAtPrecision32) {
  Rng rng(911);
  Tensor t({11, 13, 7});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.NextGaussian() * 1e3);
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 32).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_TRUE(rec.SameAs(t)) << "precision 32 must be bit-exact";
}

TEST(FpzipTest, DistortionShrinksMonotonicallyWithPrecision) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 912);
  FpzipCompressor fpzip;
  double prev_rmse = 1e300;
  for (int p : {6, 10, 16, 24, 32}) {
    const std::vector<uint8_t> bytes = fpzip.Compress(g, p).value();
    Tensor rec;
    ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double rmse = ComputeDistortion(g, rec).rmse;
    EXPECT_LE(rmse, prev_rmse) << "precision " << p;
    prev_rmse = rmse;
  }
  EXPECT_EQ(prev_rmse, 0.0);
}

TEST(FpzipTest, RatioShrinksMonotonicallyWithPrecision) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 913);
  FpzipCompressor fpzip;
  double prev_ratio = 1e300;
  for (int p : {6, 12, 20, 28}) {
    const double ratio = MeasuredRatio(fpzip, g, p);
    EXPECT_LT(ratio, prev_ratio) << "precision " << p;
    prev_ratio = ratio;
  }
}

TEST(FpzipTest, HandlesNegativeAndMixedSignData) {
  Tensor t({64});
  for (size_t i = 0; i < 64; ++i) {
    t[i] = static_cast<float>((i % 2 ? -1.0 : 1.0) * std::exp(0.1 * i));
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 32).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_TRUE(rec.SameAs(t));
}

TEST(FpzipTest, TruncationErrorIsValueRelative) {
  // At precision p the truncation changes values by a bounded *relative*
  // amount (the ordered-int space is exponent-aligned).
  Tensor t({1000});
  Rng rng(914);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::pow(10.0, rng.Uniform(-3, 3)));
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 20).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  for (size_t i = 0; i < t.size(); ++i) {
    const double rel = std::fabs(rec[i] - t[i]) / std::fabs(t[i]);
    EXPECT_LT(rel, 1e-2) << i;  // 20 of 32 ordered bits kept
  }
}

TEST(FpzipDeathTest, RejectsPrecisionOutOfRange) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 915);
  FpzipCompressor fpzip;
  EXPECT_DEATH(fpzip.Compress(g, 2).value(), "");
  EXPECT_DEATH(fpzip.Compress(g, 40).value(), "");
}

}  // namespace
}  // namespace fxrz
