// Tests for the per-tensor analysis cache: refined fixed-ratio compression
// must analyze a tensor exactly once (one feature extraction, one
// constant-block scan) no matter how many model queries it makes.

#include "src/core/analysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/nyx.h"

namespace fxrz {
namespace {

Tensor RampTensor(std::vector<size_t> dims, float scale) {
  Tensor t(std::move(dims));
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = scale * static_cast<float>(i % 97);
  }
  return t;
}

TEST(AnalysisCacheTest, SecondLookupIsAHit) {
  AnalysisCache cache;
  const Tensor t = RampTensor({16, 16}, 0.5f);
  const FeatureOptions fo;
  const CaOptions co;
  const uint64_t extractions = FeatureExtractionCount();
  const TensorAnalysis first = cache.Get(t, fo, true, co);
  const TensorAnalysis second = cache.Get(t, fo, true, co);
  EXPECT_EQ(FeatureExtractionCount() - extractions, 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(first.features.mean_value, second.features.mean_value);
  EXPECT_TRUE(second.has_ca);
  EXPECT_EQ(first.ca.constant_blocks, second.ca.constant_blocks);
}

TEST(AnalysisCacheTest, CachedResultMatchesDirectComputation) {
  AnalysisCache cache;
  const Tensor t = RampTensor({12, 10, 14}, 0.25f);
  const FeatureOptions fo;
  const CaOptions co;
  const TensorAnalysis cached = cache.Get(t, fo, true, co);
  const FeatureVector direct = ExtractFeatures(t, fo);
  const BlockScanResult scan = ScanConstantBlocks(t, co);
  EXPECT_EQ(cached.features.value_range, direct.value_range);
  EXPECT_EQ(cached.features.mnd, direct.mnd);
  EXPECT_EQ(cached.ca.constant_blocks, scan.constant_blocks);
  EXPECT_EQ(cached.ca.non_constant_ratio, scan.non_constant_ratio);
}

TEST(AnalysisCacheTest, DifferentOptionsAreDifferentEntries) {
  AnalysisCache cache;
  const Tensor t = RampTensor({20, 20}, 1.0f);
  FeatureOptions stride4;
  stride4.stride = 4;
  FeatureOptions stride2;
  stride2.stride = 2;
  (void)cache.Get(t, stride4, true, CaOptions());
  (void)cache.Get(t, stride2, true, CaOptions());
  CaOptions tight;
  tight.lambda = 0.01;
  (void)cache.Get(t, stride4, true, tight);
  (void)cache.Get(t, stride4, false, CaOptions());
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(AnalysisCacheTest, FingerprintCatchesContentChangeAtSameAddress) {
  AnalysisCache cache;
  Tensor t = RampTensor({32, 32}, 1.0f);
  const TensorAnalysis before = cache.Get(t, FeatureOptions(), true, CaOptions());
  // Mutate in place: same pointer, same dims -- the fingerprint must force
  // a fresh analysis.
  for (size_t i = 0; i < t.size(); ++i) t[i] = 3.0f;
  const TensorAnalysis after = cache.Get(t, FeatureOptions(), true, CaOptions());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(before.features.value_range, after.features.value_range);
  EXPECT_EQ(after.features.value_range, 0.0);
}

TEST(AnalysisCacheTest, EvictsLeastRecentlyUsed) {
  AnalysisCache cache(/*capacity=*/2);
  const Tensor a = RampTensor({8, 8}, 1.0f);
  const Tensor b = RampTensor({8, 9}, 1.0f);
  const Tensor c = RampTensor({8, 10}, 1.0f);
  const FeatureOptions fo;
  const CaOptions co;
  (void)cache.Get(a, fo, true, co);  // {a}
  (void)cache.Get(b, fo, true, co);  // {a, b}
  (void)cache.Get(a, fo, true, co);  // hit; a most recent
  (void)cache.Get(c, fo, true, co);  // evicts b -> {a, c}
  EXPECT_EQ(cache.misses(), 3u);
  (void)cache.Get(a, fo, true, co);  // still cached
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.Get(b, fo, true, co);  // evicted: recomputed
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(AnalysisCacheTest, ClearForgetsEverything) {
  AnalysisCache cache;
  const Tensor t = RampTensor({16, 16}, 1.0f);
  (void)cache.Get(t, FeatureOptions(), true, CaOptions());
  cache.Clear();
  (void)cache.Get(t, FeatureOptions(), true, CaOptions());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

// --- End-to-end: the pipeline analyzes each tensor exactly once ------------

class PipelineAnalysisCountTest : public ::testing::Test {
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

TEST_F(PipelineAnalysisCountTest, RefinedCompressionAnalyzesOnce) {
  const Tensor& test = fields_[3];
  GuardOptions opts = PaperPolicy(2);
  opts.accept_error = 0.0;  // force the refinement path: 3+ model queries

  const uint64_t extractions = FeatureExtractionCount();
  const uint64_t scans = ConstantBlockScanCount();
  const auto result = fxrz_->GuardedCompressToRatio(test, 30.0, opts).value();
  EXPECT_GE(result.compressions, 2);  // refinement actually ran
  EXPECT_EQ(FeatureExtractionCount() - extractions, 1u);
  EXPECT_EQ(ConstantBlockScanCount() - scans, 1u);
}

TEST_F(PipelineAnalysisCountTest, RepeatedEstimatesReuseTheAnalysis) {
  const Tensor& test = fields_[3];
  (void)fxrz_->model().EstimateWithConfidence(test, 20.0);  // warm the cache
  const uint64_t extractions = FeatureExtractionCount();
  const uint64_t scans = ConstantBlockScanCount();
  for (double tcr : {10.0, 25.0, 50.0, 80.0}) {
    (void)fxrz_->model().EstimateWithConfidence(test, tcr);
  }
  EXPECT_EQ(FeatureExtractionCount(), extractions);
  EXPECT_EQ(ConstantBlockScanCount(), scans);
  EXPECT_GE(fxrz_->model().analysis_cache_hits(), 4u);
}

TEST_F(PipelineAnalysisCountTest, DistinctTensorsAnalyzedSeparately) {
  const uint64_t extractions = FeatureExtractionCount();
  (void)fxrz_->model().EstimateWithConfidence(fields_[3], 30.0);
  (void)fxrz_->model().EstimateWithConfidence(fields_[0], 30.0);
  // Training already cached fields_[0..2] under the same options, so only
  // the unseen test tensor costs an extraction.
  EXPECT_EQ(FeatureExtractionCount() - extractions, 1u);
}

}  // namespace
}  // namespace fxrz
