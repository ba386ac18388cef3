// Tests for the guarded serving layer: input admission, the confidence
// gate, and the escalation ladder (core/guard.h).

#include "src/core/guard.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"

namespace fxrz {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr float kNanF = std::numeric_limits<float>::quiet_NaN();
constexpr float kInfF = std::numeric_limits<float>::infinity();

Tensor SmallField(uint64_t seed) {
  return GaussianRandomField3D(16, 16, 16, 3.0, seed);
}

TEST(AdmissionTest, RejectsEmptyTensor) {
  const AdmissionReport r = AdmitTensor(Tensor(), 20.0);
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(AdmissionTest, RejectsBadTargetRatios) {
  const Tensor field = SmallField(11);
  for (double bad : {0.0, -3.0, 0.5, 2e9, kNan,
                     std::numeric_limits<double>::infinity()}) {
    const AdmissionReport r = AdmitTensor(field, bad);
    EXPECT_FALSE(r.admitted) << "target=" << bad;
    EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(AdmissionTest, RejectsAndCountsNonFiniteValues) {
  Tensor field = SmallField(12);
  field[3] = kNanF;
  field[100] = kInfF;
  field[200] = -kInfF;
  const AdmissionReport r = AdmitTensor(field, 20.0);
  EXPECT_FALSE(r.admitted);
  EXPECT_EQ(r.nonfinite_values, 3u);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
}

TEST(AdmissionTest, FlagsConstantFields) {
  Tensor constant({8, 8, 8});
  for (size_t i = 0; i < constant.size(); ++i) constant[i] = 2.5f;
  const AdmissionReport r = AdmitTensor(constant, 20.0);
  EXPECT_TRUE(r.admitted);
  EXPECT_TRUE(r.constant_field);

  const AdmissionReport normal = AdmitTensor(SmallField(13), 20.0);
  EXPECT_TRUE(normal.admitted);
  EXPECT_FALSE(normal.constant_field);
}

TEST(EstimationErrorTest, GuardsNonPositiveTarget) {
  EXPECT_TRUE(std::isinf(EstimationError(0.0, 10.0)));
  EXPECT_TRUE(std::isinf(EstimationError(-5.0, 10.0)));
  EXPECT_TRUE(std::isinf(EstimationError(kNan, 10.0)));
  EXPECT_NEAR(EstimationError(10.0, 9.0), 0.1, 1e-12);
}

// Shared trained pipeline: training is the expensive part, do it once.
class GuardedServingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fields_ = new std::vector<Tensor>();
    for (uint64_t s = 1; s <= 4; ++s) fields_->push_back(SmallField(s));
    fxrz_ = new Fxrz(MakeCompressor("sz"));
    std::vector<const Tensor*> train;
    for (size_t i = 0; i < 3; ++i) train.push_back(&(*fields_)[i]);
    fxrz_->Train(train);
  }
  static void TearDownTestSuite() {
    delete fxrz_;
    fxrz_ = nullptr;
    delete fields_;
    fields_ = nullptr;
  }

  static std::vector<Tensor>* fields_;
  static Fxrz* fxrz_;
};

std::vector<Tensor>* GuardedServingTest::fields_ = nullptr;
Fxrz* GuardedServingTest::fxrz_ = nullptr;

TEST_F(GuardedServingTest, TrainedFastPathServesWithinTolerance) {
  const Tensor& test = (*fields_)[3];
  GuardOptions options;
  DriftMonitor drift;
  options.drift = &drift;
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, target, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const GuardedResult& result = r.value();
  EXPECT_TRUE(result.tier == ServingTier::kModelEstimate ||
              result.tier == ServingTier::kRefined ||
              result.tier == ServingTier::kKnobSearch)
      << ServingTierName(result.tier);
  EXPECT_LE(result.relative_error, options.accept_error);
  EXPECT_FALSE(result.compressed.empty());
  EXPECT_NEAR(result.measured_ratio,
              static_cast<double>(test.size_bytes()) /
                  static_cast<double>(result.compressed.size()),
              1e-9);
  EXPECT_EQ(drift.observations(), 1u);

  // The archive is genuinely decodable.
  Tensor decoded;
  ASSERT_TRUE(fxrz_->compressor()
                  .Decompress(result.compressed.data(),
                              result.compressed.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.dims(), test.dims());
}

TEST_F(GuardedServingTest, ConfidentFastPathStaysCheap) {
  // A trained, in-distribution query must not burn search-scale compressor
  // runs: at most 1 + max_refine_compressions when the gate passes.
  const Tensor& test = (*fields_)[3];
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, target);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  if (!r.value().low_confidence) {
    EXPECT_LE(r.value().compressions, 2);
  }
}

TEST_F(GuardedServingTest, NonFiniteTensorNeverReachesCompressor) {
  Tensor bad = (*fields_)[3];
  bad[0] = kNanF;
  const StatusOr<GuardedResult> r = fxrz_->GuardedCompressToRatio(bad, 20.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GuardedServingTest, ConstantFieldFastPath) {
  Tensor constant({16, 16, 16});
  for (size_t i = 0; i < constant.size(); ++i) constant[i] = 7.0f;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(constant, 50.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServingTier::kConstantField);
  EXPECT_EQ(r.value().compressions, 1);
  // Constant fields over-achieve any sane target.
  EXPECT_GT(r.value().measured_ratio, 50.0);
  Tensor decoded;
  ASSERT_TRUE(fxrz_->compressor()
                  .Decompress(r.value().compressed.data(),
                              r.value().compressed.size(), &decoded)
                  .ok());
  EXPECT_EQ(decoded.dims(), constant.dims());
}

TEST_F(GuardedServingTest, OutOfDistributionQueryEscalatesToFraz) {
  // Values six orders of magnitude outside the training distribution: the
  // envelope must flag the query and the ladder must serve it via the
  // knob search.
  Tensor ood = (*fields_)[3];
  for (size_t i = 0; i < ood.size(); ++i) {
    ood[i] = ood[i] * 1e6f + 5e6f;
  }
  const FxrzModel::ConfidentEstimate est =
      fxrz_->model().EstimateWithConfidence(ood, 20.0);
  EXPECT_FALSE(est.in_envelope);
  EXPECT_GT(est.envelope_excess, 0.25);

  const StatusOr<GuardedResult> r = fxrz_->GuardedCompressToRatio(ood, 20.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServingTier::kKnobSearch);
  EXPECT_TRUE(r.value().low_confidence);
  EXPECT_TRUE(r.value().out_of_distribution);
}

TEST_F(GuardedServingTest, SpreadGateRoutesToFraz) {
  // max_knob_spread = 0 makes any ensemble disagreement trip the gate.
  const Tensor& test = (*fields_)[3];
  GuardOptions options;
  options.max_knob_spread = 0.0;
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, target, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServingTier::kKnobSearch);
  EXPECT_TRUE(r.value().low_confidence);
  EXPECT_FALSE(r.value().out_of_distribution);
  EXPECT_GT(r.value().knob_spread, 0.0);
}

TEST_F(GuardedServingTest, VerifyArchiveOptionDecodeChecksTheResult) {
  const Tensor& test = (*fields_)[3];
  GuardOptions options;
  options.verify_archive = true;
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, target, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().archive_verified);
  EXPECT_LE(r.value().relative_error, options.accept_error);
}

TEST_F(GuardedServingTest, FrazDisabledReportsFailingTier) {
  const Tensor& test = (*fields_)[3];
  GuardOptions options;
  options.max_knob_spread = 0.0;  // force the gate
  options.fallback = GuardFallback::kFail;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, 20.0, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("search tier: fallback disabled"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("confidence gate"), std::string::npos)
      << r.status().message();
}

TEST_F(GuardedServingTest, SurvivesHostileOptions) {
  // Nonsense policy knobs must not abort the serving path.
  const Tensor& test = (*fields_)[3];
  GuardOptions options;
  options.accept_error = -1.0;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, 20.0, options);
  // Either outcome is fine; reaching here without FXRZ_CHECK is the test.
  if (!r.ok()) {
    EXPECT_FALSE(r.status().message().empty());
  }
}

TEST(GuardedUntrainedTest, UntrainedServesViaFrazFallback) {
  const Tensor field = SmallField(21);
  const Fxrz fxrz(MakeCompressor("sz"));
  const StatusOr<GuardedResult> r = fxrz.GuardedCompressToRatio(field, 20.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().tier, ServingTier::kKnobSearch);
  EXPECT_LE(r.value().relative_error, 0.08);
  EXPECT_FALSE(r.value().compressed.empty());
}

TEST(GuardedUntrainedTest, UntrainedWithoutFallbackIsAnError) {
  const Tensor field = SmallField(22);
  const Fxrz fxrz(MakeCompressor("sz"));
  GuardOptions options;
  options.fallback = GuardFallback::kFail;
  const StatusOr<GuardedResult> r =
      fxrz.GuardedCompressToRatio(field, 20.0, options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("model not trained"),
            std::string::npos)
      << r.status().message();
}

TEST(GuardedUntrainedTest, PaperPolicyWithoutArchiveIsAnError) {
  // kServeBest has no model-tier archive to serve: exhaustion Status.
  const Tensor field = SmallField(24);
  const Fxrz fxrz(MakeCompressor("sz"));
  const StatusOr<GuardedResult> r =
      fxrz.GuardedCompressToRatio(field, 20.0, PaperPolicy(1));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("model not trained"),
            std::string::npos)
      << r.status().message();
}

TEST(GuardedUntrainedTest, UnreachableTargetIdentifiesFrazTier) {
  // ZFP cannot reach ratio 1e6 (cf. fraz_test); the ladder must answer
  // kOutOfRange and name the codec's ceiling rather than abort or loop.
  const Tensor field = SmallField(23);
  const Fxrz fxrz(MakeCompressor("zfp"));
  const StatusOr<GuardedResult> r = fxrz.GuardedCompressToRatio(field, 1e6);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("highest reachable ratio"),
            std::string::npos)
      << r.status().message();
  EXPECT_FALSE(StatusIsRetryable(r.status()));
}

TEST(ValidateGuardOptionsTest, RejectsUnactionableKnobs) {
  EXPECT_TRUE(ValidateGuardOptions(GuardOptions{}).ok());

  GuardOptions nan_accept;
  nan_accept.accept_error = kNan;
  EXPECT_EQ(ValidateGuardOptions(nan_accept).code(),
            StatusCode::kInvalidArgument);

  GuardOptions negative_accept;
  negative_accept.accept_error = -0.1;
  EXPECT_EQ(ValidateGuardOptions(negative_accept).code(),
            StatusCode::kInvalidArgument);

  GuardOptions nan_gate;
  nan_gate.max_knob_spread = kNan;
  EXPECT_EQ(ValidateGuardOptions(nan_gate).code(),
            StatusCode::kInvalidArgument);

  GuardOptions negative_budget;
  negative_budget.max_refine_compressions = -1;
  EXPECT_EQ(ValidateGuardOptions(negative_budget).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GuardedServingTest, InvalidOptionsRejectedBeforeCompressing) {
  GuardOptions options;
  options.accept_error = kNan;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], 20.0, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GuardedServingTest, MemoryBudgetDeniesAdmissionRetryably) {
  MemoryBudget tiny(16);  // far below any request's estimated peak
  GuardOptions options;
  options.memory = &tiny;
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], target, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(StatusIsRetryable(r.status()));
  EXPECT_EQ(tiny.reserved_bytes(), 0u);  // denial holds nothing
}

TEST_F(GuardedServingTest, TightBudgetDegradesDecodeVerifyToChecksum) {
  const Tensor& test = (*fields_)[3];
  // Exactly the base reservation: admission fits, but the decode-verify
  // headroom (one more tensor) does not.
  MemoryBudget budget(
      EstimatePeakBytes(fxrz_->compressor().name(), test.size_bytes()));
  GuardOptions options;
  options.memory = &budget;
  options.verify_archive = true;
  // Generous acceptance keeps the ladder off the search tier (which the
  // tight budget would skip): this test is about the decode-verify gate.
  options.accept_error = 0.9;
  const double target = fxrz_->model().ValidTargetRatios(3)[1];
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(test, target, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Served (checksum verification still ran) but flagged: the policy asked
  // for more verification than memory allowed.
  EXPECT_TRUE(r.value().memory_degraded);
  EXPECT_FALSE(r.value().compressed.empty());
  EXPECT_EQ(budget.reserved_bytes(), 0u);  // reservation released
}

TEST(GuardedUntrainedTest, TightBudgetSkipsFrazAndExhaustsRetryably) {
  // Untrained pipeline: only the search tier could serve, but the budget has
  // no headroom for its probes -- the ladder skips it (memory_degraded
  // path) and exhausts with ResourceExhausted, which the serving layer's
  // retry loop treats as "try again once reservations free".
  const Tensor field = SmallField(31);
  const Fxrz fxrz(MakeCompressor("sz"));
  MemoryBudget budget(
      EstimatePeakBytes(fxrz.compressor().name(), field.size_bytes()));
  GuardOptions options;
  options.memory = &budget;
  const StatusOr<GuardedResult> r =
      fxrz.GuardedCompressToRatio(field, 20.0, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("memory budget exhausted"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(budget.reserved_bytes(), 0u);
}

TEST(ServingTierTest, NamesAreStable) {
  EXPECT_STREQ(ServingTierName(ServingTier::kRejected), "rejected");
  EXPECT_STREQ(ServingTierName(ServingTier::kConstantField),
               "constant-field");
  EXPECT_STREQ(ServingTierName(ServingTier::kModelEstimate),
               "model-estimate");
  EXPECT_STREQ(ServingTierName(ServingTier::kRefined), "refined");
  EXPECT_STREQ(ServingTierName(ServingTier::kKnobSearch), "knob-search");
}

}  // namespace
}  // namespace fxrz
