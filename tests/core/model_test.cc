#include "src/core/model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

class FxrzModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t s : {11, 12, 13, 14}) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    for (const Tensor& f : fields_) train_.push_back(&f);
  }

  std::vector<Tensor> fields_;
  std::vector<const Tensor*> train_;
};

TEST_F(FxrzModelTest, TrainReportsBreakdown) {
  FxrzModel model;
  FxrzTrainingOptions opts;
  opts.augmentation.num_stationary_points = 10;
  opts.samples_per_dataset = 30;
  const auto sz = MakeCompressor("sz");
  const TrainingBreakdown b = model.Train(*sz, train_, opts);
  EXPECT_TRUE(model.trained());
  EXPECT_EQ(b.compressor_runs, 40u);  // 10 points x 4 datasets
  EXPECT_EQ(b.training_rows, 120u);   // 30 rows x 4 datasets
  EXPECT_GT(b.stationary_seconds, 0.0);
  EXPECT_GT(b.total_seconds(), 0.0);
}

TEST_F(FxrzModelTest, EstimateWithinConfigSpace) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  const ConfigSpace space = sz->config_space(ValueRange(fields_[0]));
  for (double tcr : {3.0, 10.0, 50.0}) {
    const double config = model.EstimateWithConfidence(fields_[0], tcr).config;
    EXPECT_GE(config, space.min * 0.5);
    EXPECT_LE(config, space.max * 2.0);
  }
}

TEST_F(FxrzModelTest, HigherTargetRatioHigherErrorBound) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  const double low = model.EstimateWithConfidence(fields_[0], 5.0).config;
  const double high = model.EstimateWithConfidence(fields_[0], 200.0).config;
  EXPECT_LT(low, high);
}

TEST_F(FxrzModelTest, FpzipDirectionInverted) {
  FxrzModel model;
  const auto fpzip = MakeCompressor("fpzip");
  model.Train(*fpzip, train_);
  const double low = model.EstimateWithConfidence(fields_[0], 2.0).config;
  const double high = model.EstimateWithConfidence(fields_[0], 6.0).config;
  // Higher ratio needs LOWER precision.
  EXPECT_GE(low, high);
  EXPECT_EQ(low, std::round(low));  // integer knob
}

TEST_F(FxrzModelTest, TrainedRatioRangeTracksCurves) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  EXPECT_GT(model.min_trained_ratio(), 0.0);
  EXPECT_GT(model.max_trained_ratio(), model.min_trained_ratio());
  const auto targets = model.ValidTargetRatios(5);
  ASSERT_EQ(targets.size(), 5u);
  for (double t : targets) {
    EXPECT_GE(t, model.min_trained_ratio() * 0.99);
    EXPECT_LE(t, model.max_trained_ratio() * 1.01);
  }
}

TEST_F(FxrzModelTest, CaTogglesBehavior) {
  // With CA off, a mostly-constant dataset gets a different estimate than
  // with CA on (the input ratio differs by the factor R).
  Tensor sparse({16, 16, 16});
  for (size_t z = 0; z < 4; ++z) {
    for (size_t i = 0; i < 256; ++i) {
      sparse[z * 256 + i] = static_cast<float>(i % 7);
    }
  }
  // Other slices stay zero -> many constant blocks.
  std::vector<const Tensor*> train = {&sparse};

  FxrzTrainingOptions with_ca;
  with_ca.use_ca = true;
  FxrzTrainingOptions without_ca;
  without_ca.use_ca = false;
  const auto sz = MakeCompressor("sz");
  FxrzModel a, b;
  a.Train(*sz, train, with_ca);
  b.Train(*sz, train, without_ca);
  // Both produce valid estimates; they need not agree.
  const double ea = a.EstimateWithConfidence(sparse, 20.0).config;
  const double eb = b.EstimateWithConfidence(sparse, 20.0).config;
  EXPECT_GT(ea, 0.0);
  EXPECT_GT(eb, 0.0);
}

TEST_F(FxrzModelTest, NonRfrModelsTrainButDontPersist) {
  for (ModelType type : {ModelType::kAdaBoost, ModelType::kSvr}) {
    FxrzModel model;
    FxrzTrainingOptions opts;
    opts.model_type = type;
    opts.samples_per_dataset = 20;
    opts.augmentation.num_stationary_points = 8;
    const auto sz = MakeCompressor("sz");
    model.Train(*sz, train_, opts);
    EXPECT_TRUE(model.trained());
    EXPECT_GT(model.EstimateWithConfidence(fields_[0], 10.0).config, 0.0);
    std::vector<uint8_t> bytes;
    EXPECT_FALSE(model.SaveToBytes(&bytes).ok());
  }
}

TEST_F(FxrzModelTest, HyperparameterTuningPath) {
  FxrzModel model;
  FxrzTrainingOptions opts;
  opts.tune_hyperparameters = true;
  opts.samples_per_dataset = 24;
  opts.augmentation.num_stationary_points = 8;
  const auto zfp = MakeCompressor("zfp");
  model.Train(*zfp, train_, opts);
  EXPECT_TRUE(model.trained());
}

TEST_F(FxrzModelTest, LoadRejectsCorruptStreams) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(model.SaveToBytes(&bytes).ok());

  FxrzModel restored;
  EXPECT_FALSE(restored.LoadFromBytes(bytes.data(), 10).ok());
  bytes[0] ^= 0xFF;
  EXPECT_FALSE(restored.LoadFromBytes(bytes.data(), bytes.size()).ok());
}

TEST_F(FxrzModelTest, FileRoundTrip) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  const std::string path = ::testing::TempDir() + "/fxrz_model.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  FxrzModel restored;
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  EXPECT_DOUBLE_EQ(restored.EstimateWithConfidence(fields_[0], 25.0).config,
                   model.EstimateWithConfidence(fields_[0], 25.0).config);
}

TEST_F(FxrzModelTest, EnvelopeSurvivesPersistence) {
  FxrzModel model;
  const auto sz = MakeCompressor("sz");
  model.Train(*sz, train_);
  ASSERT_TRUE(model.has_envelope());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(model.SaveToBytes(&bytes).ok());

  FxrzModel restored;
  ASSERT_TRUE(restored.LoadFromBytes(bytes.data(), bytes.size()).ok());
  ASSERT_TRUE(restored.has_envelope());

  // In-distribution and far-out queries agree on both confidence channels.
  Tensor ood = fields_[0];
  for (size_t i = 0; i < ood.size(); ++i) ood[i] = ood[i] * 1e6f + 5e6f;
  for (const Tensor* query : {&fields_[0], &ood}) {
    const FxrzModel::ConfidentEstimate a =
        model.EstimateWithConfidence(*query, 25.0);
    const FxrzModel::ConfidentEstimate b =
        restored.EstimateWithConfidence(*query, 25.0);
    EXPECT_DOUBLE_EQ(a.config, b.config);
    EXPECT_DOUBLE_EQ(a.knob_spread, b.knob_spread);
    EXPECT_DOUBLE_EQ(a.envelope_excess, b.envelope_excess);
    EXPECT_EQ(a.in_envelope, b.in_envelope);
  }
  const FxrzModel::ConfidentEstimate far_out =
      restored.EstimateWithConfidence(ood, 25.0);
  EXPECT_FALSE(far_out.in_envelope);
}

TEST_F(FxrzModelTest, ParallelTrainingMatchesSerial) {
  const auto sz = MakeCompressor("sz");
  FxrzTrainingOptions serial_opts;
  serial_opts.training_threads = 1;
  FxrzTrainingOptions parallel_opts;
  parallel_opts.training_threads = 4;

  FxrzModel serial, parallel;
  serial.Train(*sz, train_, serial_opts);
  parallel.Train(*sz, train_, parallel_opts);
  // Collection order does not feed the model: results are identical.
  for (double tcr : {5.0, 20.0, 80.0}) {
    EXPECT_DOUBLE_EQ(serial.EstimateWithConfidence(fields_[0], tcr).config,
                     parallel.EstimateWithConfidence(fields_[0], tcr).config);
  }
}

TEST_F(FxrzModelTest, EstimatesMatchPinnedPointEstimates) {
  // EstimateWithConfidence's config, and RefineConfig's correction, are
  // the values the former point query (Predict, then clamp) produced,
  // pinned from it bit for bit: the forest's per-tree mean sums the trees
  // in Predict's order.
  struct Pin {
    const char* codec;
    std::vector<std::pair<double, double>> estimates;  // (target, config)
    double refined;  // RefineConfig(field, 20, estimate(20), 30)
  };
  const Pin pins[] = {
      {"sz",
       {{5.0, 0.071769761112958116},
        {20.0, 1.1596670802773528},
        {80.0, 2.2265027298765547}},
       0.79853947806963632},
      {"zfp", {{4.0, 0.20398009542703577}, {16.0, 2.0381524482759934}},
       2.0381524482759934},
      {"fpzip", {{2.0, 18.0}, {4.0, 10.0}}, 4.0},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.codec);
    FxrzModel model;
    model.Train(*MakeCompressor(pin.codec), train_);
    for (const auto& [target, config] : pin.estimates) {
      EXPECT_EQ(model.EstimateWithConfidence(fields_[0], target).config,
                config)
          << "target " << target;
    }
    const double tried = model.EstimateWithConfidence(fields_[0], 20.0).config;
    EXPECT_EQ(model.RefineConfig(fields_[0], 20.0, tried, 30.0), pin.refined);
  }
}

TEST(FxrzModelDeathTest, EstimateBeforeTrain) {
  FxrzModel model;
  Tensor t({4}, {1, 2, 3, 4});
  EXPECT_DEATH(model.EstimateWithConfidence(t, 10.0), "");
}

}  // namespace
}  // namespace fxrz
