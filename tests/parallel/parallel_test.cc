#include <gtest/gtest.h>

#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/compressibility.h"
#include "src/core/features.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/parallel/dump.h"
#include "src/parallel/io_model.h"
#include "src/util/fault_injection.h"

namespace fxrz {
namespace {

TEST(IoModelTest, SingleRank) {
  IoModelOptions opts;
  opts.aggregate_bandwidth_bytes_per_sec = 1e6;
  opts.per_dump_latency_sec = 0.0;
  const DumpTiming t = SimulateDump({{0.5, 1.0, 2'000'000}}, opts);
  EXPECT_DOUBLE_EQ(t.compute_seconds, 1.5);
  EXPECT_DOUBLE_EQ(t.io_seconds, 2.0);
  EXPECT_DOUBLE_EQ(t.total_seconds, 3.5);
  EXPECT_EQ(t.total_bytes, 2'000'000u);
}

TEST(IoModelTest, ComputeIsMaxIoIsSum) {
  IoModelOptions opts;
  opts.aggregate_bandwidth_bytes_per_sec = 1e6;
  opts.per_dump_latency_sec = 0.0;
  const DumpTiming t = SimulateDump(
      {{0.1, 0.2, 500'000}, {0.3, 0.9, 500'000}, {0.0, 0.1, 1'000'000}},
      opts);
  EXPECT_DOUBLE_EQ(t.compute_seconds, 1.2);  // max(0.3, 1.2, 0.1)
  EXPECT_DOUBLE_EQ(t.io_seconds, 2.0);       // 2 MB / 1 MB/s
}

TEST(IoModelTest, MoreRanksMoreIoTime) {
  IoModelOptions opts;
  std::vector<RankTiming> few(8, {0.01, 0.02, 1 << 20});
  std::vector<RankTiming> many(64, {0.01, 0.02, 1 << 20});
  EXPECT_GT(SimulateDump(many, opts).io_seconds,
            SimulateDump(few, opts).io_seconds);
}

class DumpExperimentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (uint64_t s : {1, 2, 3, 4, 5, 6}) {
      fields_.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
    for (size_t i = 0; i < 4; ++i) train_.push_back(&fields_[i]);
    variants_ = {&fields_[4], &fields_[5]};
  }

  std::vector<Tensor> fields_;
  std::vector<const Tensor*> train_;
  std::vector<const Tensor*> variants_;
};

TEST_F(DumpExperimentTest, FxrzBeatsFrazEndToEnd) {
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train(train_);

  DumpExperimentOptions opts;
  opts.num_ranks = 128;
  opts.target_ratio = 20.0;
  opts.measure_threads = 2;
  ParallelDumpExperiment experiment(&fxrz.compressor(), opts);

  const DumpMethodResult fx = experiment.RunFxrz(fxrz, variants_).value();
  FrazOptions fraz;
  fraz.total_max_iterations = 15;
  fraz.tolerance = 0.0;  // no early exit: full search cost
  const DumpMethodResult fr = experiment.RunFraz(fraz, variants_).value();

  // FRaZ's per-rank analysis runs the compressor ~15x; FXRZ's does not.
  EXPECT_LT(fx.mean_analysis_seconds, fr.mean_analysis_seconds);
  EXPECT_LT(fx.timing.total_seconds, fr.timing.total_seconds);
  // Both dump roughly the target ratio.
  EXPECT_GT(fx.mean_achieved_ratio, 5.0);
  EXPECT_GT(fr.mean_achieved_ratio, 5.0);
}

TEST_F(DumpExperimentTest, RankCountScalesIoNotCompute) {
  Fxrz fxrz(MakeCompressor("zfp"));
  fxrz.Train(train_);

  DumpExperimentOptions small;
  small.num_ranks = 8;
  small.target_ratio = 8.0;
  small.measure_threads = 2;
  small.io.per_dump_latency_sec = 0.0;  // isolate the bandwidth term
  small.io.aggregate_bandwidth_bytes_per_sec = 1e6;
  DumpExperimentOptions large = small;
  large.num_ranks = 512;

  const DumpMethodResult a =
      ParallelDumpExperiment(&fxrz.compressor(), small)
          .RunFxrz(fxrz, variants_)
          .value();
  const DumpMethodResult b =
      ParallelDumpExperiment(&fxrz.compressor(), large)
          .RunFxrz(fxrz, variants_)
          .value();
  EXPECT_NEAR(b.timing.io_seconds / a.timing.io_seconds, 64.0, 10.0);
}

TEST_F(DumpExperimentTest, FailedRankCompressionPropagatesItsStatus) {
  if (!fault::Enabled()) GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train(train_);
  DumpExperimentOptions opts;
  opts.target_ratio = 20.0;
  opts.measure_threads = 2;
  ParallelDumpExperiment experiment(&fxrz.compressor(), opts);

  // One injected codec failure, in whichever rank compresses first: a
  // final compression for FXRZ, a search probe for FRaZ.
  fault::ResetAll();
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  const Status fx = experiment.RunFxrz(fxrz, variants_).status();
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  const Status fr = experiment.RunFraz(FrazOptions(), variants_).status();
  fault::ResetAll();
  EXPECT_EQ(fx.code(), StatusCode::kUnavailable) << fx.ToString();
  EXPECT_EQ(fr.code(), StatusCode::kUnavailable) << fr.ToString();
  EXPECT_TRUE(experiment.RunFxrz(fxrz, variants_).ok());
}

TEST_F(DumpExperimentTest, UntrainedFxrzIsAStatus) {
  const Fxrz untrained(MakeCompressor("sz"));
  DumpExperimentOptions opts;
  opts.measure_threads = 2;
  ParallelDumpExperiment experiment(&untrained.compressor(), opts);
  const Status st = experiment.RunFxrz(untrained, variants_).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST_F(DumpExperimentTest, FxrzAnalyzesEachVariantOnce) {
  // The timed model query fills the analysis cache; the ladder's own
  // query reuses it.
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train(train_);
  DumpExperimentOptions opts;
  opts.target_ratio = 20.0;
  opts.measure_threads = 2;
  ParallelDumpExperiment experiment(&fxrz.compressor(), opts);
  const uint64_t extractions = FeatureExtractionCount();
  const uint64_t scans = ConstantBlockScanCount();
  ASSERT_TRUE(experiment.RunFxrz(fxrz, variants_).ok());
  EXPECT_EQ(FeatureExtractionCount() - extractions, variants_.size());
  EXPECT_EQ(ConstantBlockScanCount() - scans, variants_.size());
}

TEST(DumpClampTest, FxrzDumpsTheLaddersArchiveInsideTheConfigSpace) {
  // Trained on unit-scale fields, dumping one 1000x smaller: the model's
  // estimate lies far above the field's error-bound range. The dump must
  // compress what the ladder serves, clamped into config_space.
  std::vector<Tensor> fields;
  for (uint64_t s : {401, 402, 403, 404}) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
  }
  Fxrz fxrz(MakeCompressor("sz"));
  fxrz.Train({&fields[0], &fields[1], &fields[2]});
  Tensor scaled = fields[3];
  for (size_t i = 0; i < scaled.size(); ++i) scaled[i] *= 1e-3f;
  const ConfigSpace space = fxrz.compressor().config_space(ValueRange(scaled));
  ASSERT_GT(fxrz.model().EstimateWithConfidence(scaled, 20.0).config,
            space.max);
  const GuardedResult served =
      fxrz.GuardedCompressToRatio(scaled, 20.0, PaperPolicy(0)).value();
  EXPECT_LE(served.config, space.max);

  DumpExperimentOptions opts;
  opts.num_ranks = 4;
  opts.target_ratio = 20.0;
  opts.measure_threads = 1;
  ParallelDumpExperiment experiment(&fxrz.compressor(), opts);
  const DumpMethodResult fx = experiment.RunFxrz(fxrz, {&scaled}).value();
  EXPECT_EQ(fx.mean_achieved_ratio, served.measured_ratio);
  EXPECT_EQ(fx.timing.total_bytes, 4 * served.compressed.size());
}

}  // namespace
}  // namespace fxrz
