// ZFP-specific behaviors: fixed-rate mode, the stairwise ratio curve, and
// the fixed-rate-vs-fixed-accuracy gap the paper's Related Work discusses.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/compressors/zfp.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

TEST(ZfpFixedRateTest, HitsRequestedRate) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 101);
  ZfpCompressor zfp;
  for (double rate : {4.0, 8.0, 16.0}) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    const double actual_rate = 8.0 * bytes.size() / g.size();
    // Header overhead aside, the payload is exactly rate bits/value.
    EXPECT_NEAR(actual_rate, rate, 1.0) << rate;
  }
}

TEST(ZfpFixedRateTest, RoundTripsAtEveryRate) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 102);
  ZfpCompressor zfp;
  double prev_rmse = 1e9;
  for (double rate : {2.0, 6.0, 12.0, 24.0}) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    Tensor rec;
    ASSERT_TRUE(zfp.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double rmse = ComputeDistortion(g, rec).rmse;
    EXPECT_LT(rmse, prev_rmse) << "error must shrink as rate grows";
    prev_rmse = rmse;
  }
  EXPECT_LT(prev_rmse, 1e-4);  // 24 bits/value is near-lossless here
}

TEST(ZfpFixedRateTest, FixedAccuracyBeatsFixedRateAtEqualDistortion) {
  // The paper's Related Work: ZFP's fixed-rate mode yields ~2x lower
  // compression ratio than fixed-accuracy at the same distortion.
  const Tensor g = GaussianRandomField3D(32, 32, 32, 3.5, 103);
  ZfpCompressor zfp;
  const double eb = 0.01 * ComputeSummary(g).value_range;

  const std::vector<uint8_t> acc_bytes = zfp.Compress(g, eb).value();
  Tensor acc_rec;
  ASSERT_TRUE(zfp.Decompress(acc_bytes.data(), acc_bytes.size(), &acc_rec).ok());
  const double acc_rmse = ComputeDistortion(g, acc_rec).rmse;

  // Find the rate that matches the accuracy-mode distortion.
  double matching_rate = 32.0;
  for (double rate = 1.0; rate <= 32.0; rate += 1.0) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    Tensor rec;
    ASSERT_TRUE(zfp.Decompress(bytes.data(), bytes.size(), &rec).ok());
    if (ComputeDistortion(g, rec).rmse <= acc_rmse) {
      matching_rate = rate;
      break;
    }
  }
  const double acc_ratio =
      static_cast<double>(g.size_bytes()) / acc_bytes.size();
  const double rate_ratio = 32.0 / matching_rate;
  EXPECT_GT(acc_ratio, rate_ratio)
      << "fixed-accuracy should compress better at equal distortion";
}

TEST(ZfpStairwiseTest, RatioCurveHasFlatSteps) {
  // Sweep the error bound finely; ZFP's ratio must repeat values (stairs)
  // rather than change at every step like SZ.
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 104);
  ZfpCompressor zfp;
  const ConfigSpace space = zfp.config_space(g);
  int flat_steps = 0;
  double prev = -1.0;
  for (int i = 0; i < 40; ++i) {
    const double f = i / 39.0;
    const double eb = std::pow(
        10.0, std::log10(space.min) +
                  f * (std::log10(space.max) - std::log10(space.min)));
    const double ratio = MeasuredRatio(zfp, g, eb);
    if (prev >= 0 && ratio == prev) ++flat_steps;
    prev = ratio;
  }
  EXPECT_GE(flat_steps, 5) << "expected a stairwise ratio curve";
}

TEST(ZfpFixedRateTest, RejectsBadRate) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 105);
  ZfpCompressor zfp;
  for (double rate : {0.0, -1.0, 34.5, 100.0, std::nan("")}) {
    const StatusOr<std::vector<uint8_t>> out = zfp.CompressFixedRate(g, rate);
    ASSERT_FALSE(out.ok()) << rate;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << rate;
  }
  EXPECT_TRUE(zfp.CompressFixedRate(g, 34.0).ok());
}

}  // namespace
}  // namespace fxrz
