// Tests for the quality-preview extension (EstimatePsnr) and the PSNR
// control adapter.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/compressors/psnr.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

class QualityModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t s : {801, 802, 803, 804}) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    for (size_t i = 0; i < 3; ++i) train_.push_back(&fields_[i]);
  }

  std::vector<Tensor> fields_;
  std::vector<const Tensor*> train_;
};

TEST_F(QualityModelTest, DisabledByDefault) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  EXPECT_FALSE(model.has_quality_model());
  EXPECT_DEATH(model.EstimatePsnr(fields_[3], 10.0), "");
}

TEST_F(QualityModelTest, PredictsMonotonicallyDecreasingQuality) {
  FxrzModel model;
  FxrzTrainingOptions opts;
  opts.train_quality_model = true;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_, opts);
  ASSERT_TRUE(model.has_quality_model());

  // Higher compression ratio => lower predicted PSNR.
  const double q_low = model.EstimatePsnr(fields_[3], 4.0);
  const double q_high = model.EstimatePsnr(fields_[3], 200.0);
  EXPECT_GT(q_low, q_high);
  EXPECT_GT(q_low, 20.0);   // sane dB ranges
  EXPECT_LT(q_low, 200.0);
}

TEST_F(QualityModelTest, PreviewTracksMeasuredPsnr) {
  FxrzModel model;
  FxrzTrainingOptions opts;
  opts.train_quality_model = true;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_, opts);

  const Tensor& test = fields_[3];
  for (double tcr : {8.0, 40.0}) {
    const double predicted = model.EstimatePsnr(test, tcr);
    const double config = model.EstimateWithConfidence(test, tcr).config;
    const std::vector<uint8_t> bytes = sz->Compress(test, config).value();
    Tensor rec;
    ASSERT_TRUE(sz->Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double measured = ComputeDistortion(test, rec).psnr;
    EXPECT_NEAR(predicted, measured, 12.0)  // same quality regime
        << "tcr=" << tcr;
  }
}

TEST(PsnrAdapterTest, AchievedPsnrTracksKnob) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.5, 805);
  PsnrBoundCompressor comp(MakeCompressor("sz"));
  for (double target : {40.0, 60.0, 80.0}) {
    const std::vector<uint8_t> bytes = comp.Compress(g, target).value();
    Tensor rec;
    ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double achieved = ComputeDistortion(g, rec).psnr;
    // The uniform-noise model is conservative: achieved >= target - 2 dB.
    EXPECT_GE(achieved, target - 2.0) << target;
  }
}

TEST(PsnrAdapterTest, ConfigSpaceShape) {
  PsnrBoundCompressor comp(MakeCompressor("mgard"));
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 806);
  const ConfigSpace space = comp.config_space(ValueRange(g));
  EXPECT_FALSE(space.log_scale);
  EXPECT_FALSE(space.integer);
  EXPECT_FALSE(space.ratio_increases);
  EXPECT_EQ(comp.name(), "mgard-psnr");
}

TEST(PsnrAdapterTest, FxrzRunsOnPsnrKnob) {
  std::vector<Tensor> fields;
  for (uint64_t s : {807, 808, 809}) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
  }
  Fxrz fxrz(std::make_unique<PsnrBoundCompressor>(MakeCompressor("sz")));
  fxrz.Train({&fields[0], &fields[1]});
  const auto result =
      fxrz.GuardedCompressToRatio(fields[2], 10.0, PaperPolicy()).value();
  EXPECT_GE(result.config, 20.0);
  EXPECT_LE(result.config, 120.0);
  EXPECT_LT(EstimationError(10.0, result.measured_ratio), 0.6);
}

}  // namespace
}  // namespace fxrz
