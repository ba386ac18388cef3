// Non-finite input regression tests: a tensor containing NaN/Inf must
// never abort the serving path for ANY of the six compressors, and the
// analysis kernels (feature extraction, distortion metrics) must stay
// finite under the documented skip policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/compressors/zfp.h"
#include "src/core/features.h"
#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
constexpr float kInfF = std::numeric_limits<float>::infinity();

Tensor PoisonedField() {
  Tensor t = GaussianRandomField3D(16, 16, 16, 3.0, 77);
  t[0] = kNanF;
  t[t.size() / 2] = kInfF;
  t[t.size() - 1] = -kInfF;
  return t;
}

// The six compressor stacks the framework ships: the five codecs plus the
// chunked decorator.
std::vector<std::unique_ptr<Compressor>> AllCompressorStacks() {
  std::vector<std::unique_ptr<Compressor>> out;
  for (const char* name : {"sz", "sz3", "zfp", "fpzip", "mgard"}) {
    out.push_back(MakeCompressor(name));
  }
  out.push_back(std::make_unique<ChunkedCompressor>(MakeCompressor("sz")));
  return out;
}

TEST(NonFiniteTensorTest, GuardedPathRejectsCleanlyForAllCompressors) {
  const Tensor poisoned = PoisonedField();
  for (auto& compressor : AllCompressorStacks()) {
    SCOPED_TRACE(compressor->name());
    const Fxrz fxrz(std::move(compressor));
    const StatusOr<GuardedResult> r =
        fxrz.GuardedCompressToRatio(poisoned, 20.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("NaN/Inf"), std::string::npos)
        << r.status().message();
  }
}

// Each codec called directly, without the guard's admission scan: a NaN or
// Inf either fails as InvalidArgument, or the archive decodes with every
// finite point inside the codec's bound.
TEST(NonFiniteTensorTest, DirectCompressRejectsOrKeepsFinitePointsInBound) {
  const Tensor poisoned = PoisonedField();
  const Tensor clean = GaussianRandomField3D(16, 16, 16, 3.0, 77);
  const SummaryStats stats = ComputeSummary(clean);
  const double slack =
      1e-5 * std::max(std::fabs(stats.min), std::fabs(stats.max));
  for (const char* name : {"sz", "sz3", "zfp", "fpzip", "mgard"}) {
    SCOPED_TRACE(name);
    const std::unique_ptr<Compressor> comp = MakeCompressor(name);
    const ConfigSpace space = comp->config_space(ValueRange(clean));
    const double config = space.integer
                              ? std::round(0.5 * (space.min + space.max))
                              : std::sqrt(space.min * space.max);
    const StatusOr<std::vector<uint8_t>> out =
        comp->Compress(poisoned, config);
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
          << out.status().ToString();
      continue;
    }
    Tensor rec;
    const Status st =
        comp->Decompress(out.value().data(), out.value().size(), &rec);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(rec.dims(), poisoned.dims());
    size_t violations = 0;
    double worst = 0.0;
    for (size_t i = 0; i < poisoned.size(); ++i) {
      const double x = poisoned[i];
      if (!std::isfinite(x)) continue;
      // fpzip keeps the top `config` bits of each value's ordered integer:
      // a relative bound. The others take an absolute bound.
      const double bound = space.integer
                               ? std::fabs(x) * std::ldexp(1.0, 10 - config)
                               : config + slack;
      const double err = std::fabs(static_cast<double>(rec[i]) - x);
      if (!(err <= bound)) {
        ++violations;
        worst = std::max(worst, err);
      }
    }
    EXPECT_EQ(violations, 0u) << "worst error " << worst;
  }
}

// zfp encodes its blocks in parallel ranges. A NaN in the last block, or in
// a block of a middle range, fails the whole compression in either mode.
TEST(NonFiniteTensorTest, ZfpNanInAnyBlockRangeFailsTheArchive) {
  const Tensor clean = GaussianRandomField3D(64, 64, 64, 3.0, 78);
  const std::unique_ptr<Compressor> comp = MakeCompressor("zfp");
  const ZfpCompressor zfp;
  const double tolerance = 1e-3 * ValueRange(clean);
  for (const size_t at : {clean.size() - 1, clean.size() / 2 + 100}) {
    SCOPED_TRACE("NaN at " + std::to_string(at));
    Tensor poisoned = clean;
    poisoned[at] = kNanF;
    const StatusOr<std::vector<uint8_t>> accuracy =
        comp->Compress(poisoned, tolerance);
    const StatusOr<std::vector<uint8_t>> rate =
        zfp.CompressFixedRate(poisoned, 8.0);
    for (const auto* out : {&accuracy, &rate}) {
      ASSERT_FALSE(out->ok());
      EXPECT_EQ(out->status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(out->status().message(), "zfp: input has NaN/Inf values");
    }
  }
  EXPECT_TRUE(comp->Compress(clean, tolerance).ok());
}

TEST(NonFiniteTensorTest, AdmissionCountsEveryBadValue) {
  const AdmissionReport report = AdmitTensor(PoisonedField(), 20.0);
  EXPECT_FALSE(report.admitted);
  EXPECT_EQ(report.nonfinite_values, 3u);
}

TEST(NonFiniteTensorTest, FeatureExtractionStaysFinite) {
  const Tensor poisoned = PoisonedField();
  for (const auto& extract : {ExtractFeatures, ExtractFeaturesReference}) {
    const FeatureVector f = extract(poisoned, FeatureOptions{});
    for (const std::string& name : AllFeatureNames()) {
      EXPECT_TRUE(std::isfinite(FeatureByName(f, name))) << name;
    }
    EXPECT_GT(f.value_range, 0.0) << "finite samples must still contribute";
  }
}

TEST(NonFiniteTensorTest, FusedAndReferenceAgreeOnPoisonedData) {
  const Tensor poisoned = PoisonedField();
  const FeatureVector fused = ExtractFeatures(poisoned);
  const FeatureVector ref = ExtractFeaturesReference(poisoned);
  for (const std::string& name : AllFeatureNames()) {
    EXPECT_NEAR(FeatureByName(fused, name), FeatureByName(ref, name),
                1e-9 * (1.0 + std::fabs(FeatureByName(ref, name))))
        << name;
  }
}

TEST(NonFiniteTensorTest, AllNonFiniteTensorYieldsZeroFeatures) {
  Tensor t({4, 4, 4});
  for (size_t i = 0; i < t.size(); ++i) t[i] = kNanF;
  const FeatureVector f = ExtractFeatures(t);
  for (const std::string& name : AllFeatureNames()) {
    EXPECT_EQ(FeatureByName(f, name), 0.0) << name;
  }
}

TEST(NonFiniteTensorTest, DistortionSkipsPoisonedPairs) {
  Tensor original = GaussianRandomField3D(8, 8, 8, 2.0, 5);
  Tensor recon = original;  // identical -> zero error on finite pairs
  original[3] = kNanF;      // bad on the original side
  recon[10] = kInfF;        // bad on the reconstruction side
  const DistortionStats d = ComputeDistortion(original, recon);
  EXPECT_EQ(d.nonfinite_skipped, 2u);
  EXPECT_EQ(d.max_abs_error, 0.0);
  EXPECT_EQ(d.rmse, 0.0);
  EXPECT_TRUE(std::isfinite(d.psnr));
}

TEST(NonFiniteTensorTest, DistortionWithNoFinitePairsIsDefined) {
  Tensor original({2, 2});
  Tensor recon({2, 2});
  for (size_t i = 0; i < original.size(); ++i) original[i] = kNanF;
  const DistortionStats d = ComputeDistortion(original, recon);
  EXPECT_EQ(d.nonfinite_skipped, original.size());
  EXPECT_EQ(d.psnr, 999.0);
  EXPECT_TRUE(std::isfinite(d.nrmse));
}

}  // namespace
}  // namespace fxrz
