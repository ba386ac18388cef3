#include "src/core/selector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/data/generators/grf.h"
#include "src/data/generators/rtm.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

class SelectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t s : {951, 952, 953}) {
      train_fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    train_fields_.push_back(SimulateRtmSnapshot(RtmSmallScaleConfig(), 200));
    for (const Tensor& f : train_fields_) train_.push_back(&f);

    FxrzTrainingOptions opts;
    opts.train_quality_model = true;
    for (const char* name : {"sz", "zfp"}) {
      auto comp = MakeCompressor(name);
      auto model = std::make_unique<FxrzModel>();
      model->Train(*comp, train_, opts);
      models_.push_back(std::move(model));
      names_.push_back(name);
    }
  }

  std::vector<SelectorCandidate> Candidates() const {
    std::vector<SelectorCandidate> c;
    for (size_t i = 0; i < models_.size(); ++i) {
      c.push_back({names_[i], models_[i].get()});
    }
    return c;
  }

  std::vector<Tensor> train_fields_;
  std::vector<const Tensor*> train_;
  std::vector<std::unique_ptr<FxrzModel>> models_;
  std::vector<std::string> names_;
};

TEST_F(SelectorTest, ReturnsOneOfTheCandidates) {
  CompressorSelector selector(Candidates());
  const Tensor test = GaussianRandomField3D(16, 16, 16, 3.0, 960);
  const SelectionResult result = selector.Select(test, 8.0);
  EXPECT_TRUE(result.compressor_name == "sz" ||
              result.compressor_name == "zfp");
  EXPECT_EQ(result.candidate_psnrs.size(), 2u);
  EXPECT_GT(result.config, 0.0);
}

TEST_F(SelectorTest, PickedCandidateHasBestPrediction) {
  CompressorSelector selector(Candidates());
  const Tensor test = GaussianRandomField3D(16, 16, 16, 3.0, 961);
  const SelectionResult result = selector.Select(test, 6.0);
  double best = result.candidate_psnrs[0];
  for (double p : result.candidate_psnrs) best = std::max(best, p);
  EXPECT_DOUBLE_EQ(result.expected_psnr, best);
}

TEST_F(SelectorTest, SelectionTracksActualQualityOrdering) {
  // On a ratio both compressors can reach, the selected compressor should
  // actually deliver at-least-comparable measured quality.
  CompressorSelector selector(Candidates());
  const Tensor test = GaussianRandomField3D(16, 16, 16, 3.0, 962);
  const SelectionResult sel = selector.Select(test, 6.0);

  double measured[2];
  for (size_t i = 0; i < names_.size(); ++i) {
    const auto comp = MakeCompressor(names_[i]);
    const double config = models_[i]->EstimateWithConfidence(test, 6.0).config;
    const StatusOr<std::vector<uint8_t>> bytes = comp->Compress(test, config);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    Tensor rec;
    ASSERT_TRUE(
        comp->Decompress(bytes.value().data(), bytes.value().size(), &rec)
            .ok());
    measured[i] = ComputeDistortion(test, rec).psnr;
  }
  const size_t picked = sel.compressor_name == names_[0] ? 0 : 1;
  EXPECT_GE(measured[picked], measured[1 - picked] - 6.0)
      << "selector picked a clearly worse compressor";
}

TEST_F(SelectorTest, UnreachableTargetsPenalized) {
  CompressorSelector selector(Candidates());
  const Tensor test = GaussianRandomField3D(16, 16, 16, 3.0, 963);
  // At an extreme ratio beyond ZFP's range, SZ should win (it reaches
  // much higher ratios).
  const SelectionResult result = selector.Select(test, 400.0);
  EXPECT_EQ(result.compressor_name, "sz");
}

TEST(SelectorDeathTest, RejectsModelsWithoutQuality) {
  Tensor field = GaussianRandomField3D(8, 8, 8, 3.0, 964);
  std::vector<const Tensor*> train = {&field};
  const auto sz = MakeCompressor("sz");
  FxrzModel model;
  model.Train(*sz, train);  // no quality model
  EXPECT_DEATH(CompressorSelector({{"sz", &model}}), "");
}

}  // namespace
}  // namespace fxrz
