// Tests for the paper's fixed-ratio path -- the guard ladder under
// PaperPolicy(k) -- and its hybrid one-run refinement extension (paper
// future work).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/generators/nyx.h"
#include "src/data/statistics.h"

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
    const auto plain =
        fxrz_->GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
    const auto refined =
        fxrz_->GuardedCompressToRatio(test, tcr, PaperPolicy(1)).value();
    EXPECT_LE(EstimationError(tcr, refined.measured_ratio),
              EstimationError(tcr, plain.measured_ratio) + 1e-12)
        << "tcr=" << tcr;
  }
}

TEST_F(RefinementTest, BoundedCompressionCount) {
  const Tensor& test = fields_[3];
  GuardOptions opts = PaperPolicy(2);
  opts.accept_error = 0.0;  // always try to refine
  const auto result = fxrz_->GuardedCompressToRatio(test, 30.0, opts).value();
  EXPECT_GE(result.compressions, 1);
  EXPECT_LE(result.compressions, 3);
}

TEST_F(RefinementTest, SkipsRefinementWhenAlreadyAccurate) {
  const Tensor& test = fields_[3];
  GuardOptions opts = PaperPolicy(1);
  opts.accept_error = 10.0;  // any outcome counts as accurate
  const auto result = fxrz_->GuardedCompressToRatio(test, 30.0, opts).value();
  EXPECT_EQ(result.compressions, 1);
  EXPECT_EQ(result.tier, ServingTier::kModelEstimate);
}

TEST_F(RefinementTest, RefineConfigMovesInCorrectDirection) {
  const Tensor& test = fields_[3];
  const FxrzModel& model = fxrz_->model();
  const double config = model.EstimateWithConfidence(test, 50.0).config;
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
  const auto result =
      fxrz_->GuardedCompressToRatio(test, 40.0, PaperPolicy(1)).value();
  EXPECT_NEAR(result.measured_ratio,
              static_cast<double>(test.size_bytes()) / result.compressed.size(),
              1e-9);
}

// PaperPolicy(0) is the paper's one-shot path: exactly one compression at
// the model estimate, rounded and clamped into the codec's config space --
// byte-identical to running the codec there by hand.
TEST(PaperPolicyTest, MatchesOneClampedCompressionAcrossCodecs) {
  std::vector<Tensor> fields;
  for (uint64_t s : {71, 72, 73}) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
  }
  const Tensor& test = fields[2];
  for (const std::string name : {"sz", "sz3", "zfp", "fpzip", "mgard"}) {
    Fxrz fxrz(MakeCompressor(name));
    fxrz.Train({&fields[0], &fields[1]});
    const ConfigSpace space = fxrz.compressor().config_space(ValueRange(test));
    for (double tcr : fxrz.model().ValidTargetRatios(3)) {
      double config = fxrz.model().EstimateWithConfidence(test, tcr).config;
      if (space.integer) config = std::round(config);
      config = std::clamp(config, space.min, space.max);
      const std::vector<uint8_t> expected =
          fxrz.compressor().Compress(test, config).value();

      const auto result =
          fxrz.GuardedCompressToRatio(test, tcr, PaperPolicy()).value();
      EXPECT_EQ(result.compressions, 1) << name << " tcr=" << tcr;
      EXPECT_EQ(result.config, config) << name << " tcr=" << tcr;
      EXPECT_GE(result.config, space.min) << name;
      EXPECT_LE(result.config, space.max) << name;
      EXPECT_TRUE(result.compressed == expected) << name << " tcr=" << tcr;
    }
  }
}

}  // namespace
}  // namespace fxrz
