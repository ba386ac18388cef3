#include "src/core/verify.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/compressors/psnr.h"
#include "src/compressors/relative.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

class VerifyAllCompressorsTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(VerifyAllCompressorsTest, ReportsHealthyRoundTrip) {
  const auto comp = MakeCompressor(GetParam());
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 991);
  const ConfigSpace space = comp->config_space(ValueRange(g));
  const double config =
      space.integer ? 16 : std::sqrt(space.min * space.max);
  const VerificationReport report = VerifyCompression(*comp, g, config);
  EXPECT_TRUE(report.round_trip_ok) << report.ToString();
  EXPECT_TRUE(report.error_bound_ok) << report.ToString();
  EXPECT_GT(report.ratio, 1.0);
  EXPECT_GT(report.compress_seconds, 0.0);
  EXPECT_GT(report.decompress_seconds, 0.0);
  EXPECT_GT(report.distortion.psnr, 20.0);
  // The string rendering carries the headline facts.
  EXPECT_NE(report.ToString().find("round_trip=ok"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Extended, VerifyAllCompressorsTest,
                         ::testing::ValuesIn(ExtendedCompressorNames()),
                         [](const auto& info) { return info.param; });

TEST(VerifyAdaptersTest, RelativeAndPsnrKnobsVerify) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 992);
  {
    RelativeErrorCompressor rel(MakeCompressor("sz"));
    const VerificationReport r = VerifyCompression(rel, g, 1e-3);
    EXPECT_TRUE(r.round_trip_ok);
    // The relative knob is not an absolute bound, so error_bound_ok is not
    // asserted here; the distortion itself must still be tight.
    EXPECT_GT(r.distortion.psnr, 30.0);
  }
  {
    PsnrBoundCompressor psnr(MakeCompressor("sz"));
    const VerificationReport r = VerifyCompression(psnr, g, 60.0);
    EXPECT_TRUE(r.round_trip_ok);
    EXPECT_TRUE(r.error_bound_ok);  // inverted space: no abs contract
    EXPECT_GE(r.distortion.psnr, 58.0);
  }
}

}  // namespace
}  // namespace fxrz
