// Tests for the quality-preview extension (EstimatePsnr).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/model.h"
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

}  // namespace
}  // namespace fxrz
