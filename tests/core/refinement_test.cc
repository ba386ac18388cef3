// Tests for the hybrid one-run refinement extension (paper future work).

#include <gtest/gtest.h>

#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/nyx.h"

namespace fxrz {
namespace {

class RefinementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    NyxConfig config = NyxConfig1();
    config.nz = config.ny = config.nx = 32;
    for (int t = 0; t < 4; ++t) {
      fields_.push_back(GenerateNyxField(config, "baryon_density", t));
    }
    std::vector<const Tensor*> train;
    for (size_t i = 0; i < 3; ++i) train.push_back(&fields_[i]);
    fxrz_ = std::make_unique<Fxrz>(MakeCompressor("sz"));
    fxrz_->Train(train);
  }

  std::vector<Tensor> fields_;
  std::unique_ptr<Fxrz> fxrz_;
};

TEST_F(RefinementTest, NeverWorseThanPlainEstimate) {
  const Tensor& test = fields_[3];
  for (double tcr : fxrz_->model().ValidTargetRatios(5)) {
    const auto plain = fxrz_->CompressToRatio(test, tcr).value();
    const auto refined = fxrz_->CompressToRatioRefined(test, tcr).value();
    EXPECT_LE(EstimationError(tcr, refined.measured_ratio),
              EstimationError(tcr, plain.measured_ratio) + 1e-12)
        << "tcr=" << tcr;
  }
}

TEST_F(RefinementTest, BoundedCompressionCount) {
  const Tensor& test = fields_[3];
  Fxrz::RefinementOptions opts;
  opts.error_threshold = 0.0;  // always try to refine
  opts.max_extra_compressions = 2;
  const auto result = fxrz_->CompressToRatioRefined(test, 30.0, opts).value();
  EXPECT_GE(result.compressions, 1);
  EXPECT_LE(result.compressions, 3);
}

TEST_F(RefinementTest, SkipsRefinementWhenAlreadyAccurate) {
  const Tensor& test = fields_[3];
  Fxrz::RefinementOptions opts;
  opts.error_threshold = 10.0;  // any outcome counts as accurate
  const auto result = fxrz_->CompressToRatioRefined(test, 30.0, opts).value();
  EXPECT_EQ(result.compressions, 1);
}

TEST_F(RefinementTest, RefineConfigMovesInCorrectDirection) {
  const Tensor& test = fields_[3];
  const FxrzModel& model = fxrz_->model();
  const double config = model.EstimateConfig(test, 50.0);
  // Pretend the measured ratio overshot the target: the corrected error
  // bound must be smaller (compress less aggressively).
  const double corrected_down = model.RefineConfig(test, 50.0, config, 90.0);
  EXPECT_LT(corrected_down, config);
  // Undershot: corrected error bound must grow.
  const double corrected_up = model.RefineConfig(test, 50.0, config, 25.0);
  EXPECT_GT(corrected_up, config);
}

TEST_F(RefinementTest, ResultPayloadMatchesReportedRatio) {
  const Tensor& test = fields_[3];
  const auto result = fxrz_->CompressToRatioRefined(test, 40.0).value();
  EXPECT_NEAR(result.measured_ratio,
              static_cast<double>(test.size_bytes()) / result.compressed.size(),
              1e-9);
}

}  // namespace
}  // namespace fxrz
