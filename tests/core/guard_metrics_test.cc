// Deterministic observability assertions for the guarded serving path:
// scripted guard scenarios must move exactly the counters they claim to.
//
// Every test captures a MetricsSnapshot before the scenario and asserts on
// the Delta afterwards, so tests stay order-independent even though the
// registry is process-wide and never resets. No wall-clock quantities are
// asserted -- timing histograms are checked only for presence elsewhere.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics.h"

namespace fxrz {
namespace {

using metrics::MetricsSnapshot;

constexpr char kSzCompressions[] = "fxrz_codec_compress_total{codec=\"sz\"}";

std::string TierCounterName(ServingTier tier) {
  return std::string("fxrz_guard_served_total{tier=\"") +
         ServingTierName(tier) + "\"}";
}

// Sum of the served-per-tier counters present in a delta.
uint64_t TotalServed(const MetricsSnapshot& delta) {
  uint64_t total = 0;
  for (ServingTier tier :
       {ServingTier::kConstantField, ServingTier::kModelEstimate,
        ServingTier::kRefined, ServingTier::kKnobSearch}) {
    total += delta.CounterValue(TierCounterName(tier));
  }
  return total;
}

class GuardMetricsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fields_ = new std::vector<Tensor>();
    for (uint64_t s = 61; s <= 64; ++s) {
      fields_->push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
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

  void SetUp() override {
    if (!metrics::Enabled()) {
      GTEST_SKIP() << "built with FXRZ_METRICS=OFF";
    }
    before_ = MetricsSnapshot::Capture();
  }

  MetricsSnapshot Delta() const {
    return MetricsSnapshot::Delta(before_, MetricsSnapshot::Capture());
  }

  double MidTarget() const { return fxrz_->model().ValidTargetRatios(3)[1]; }

  MetricsSnapshot before_;
  static std::vector<Tensor>* fields_;
  static Fxrz* fxrz_;
};

std::vector<Tensor>* GuardMetricsTest::fields_ = nullptr;
Fxrz* GuardMetricsTest::fxrz_ = nullptr;

TEST_F(GuardMetricsTest, ServedRequestCountsExactlyOneTier) {
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget());
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_guard_requests_total"), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_admission_rejected_total"), 0u);
  // Exactly one tier served it, and it is the tier the result reports.
  EXPECT_EQ(TotalServed(delta), 1u);
  EXPECT_EQ(delta.CounterValue(TierCounterName(r.value().tier)), 1u);
  // The compression budget the result reports is what the counters saw:
  // the guard's own tally and the codec entry every run goes through.
  EXPECT_EQ(delta.CounterValue("fxrz_guard_compressions_total"),
            static_cast<uint64_t>(r.value().compressions));
  EXPECT_EQ(delta.CounterValue(kSzCompressions),
            static_cast<uint64_t>(r.value().compressions));
  // One target-ratio and one measured-ratio observation.
  const metrics::MetricValue* target = delta.Find("fxrz_guard_target_ratio");
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->count, 1u);
  const metrics::MetricValue* measured =
      delta.Find("fxrz_guard_measured_ratio");
  ASSERT_NE(measured, nullptr);
  EXPECT_EQ(measured->count, 1u);
  EXPECT_DOUBLE_EQ(measured->sum, r.value().measured_ratio);
}

TEST_F(GuardMetricsTest, PaperPolicyServesBestArchiveWhenModelTiersMiss) {
  // A 16^3 field cannot reach ratio 1e6 (the archive header alone caps
  // it), so both model tiers miss accept_error. PaperPolicy serves the best
  // archive anyway, with its real error, and counts the request as served
  // and as exhausted -- without running the knob search.
  const double target = 1e6;
  const GuardOptions policy = PaperPolicy(1);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], target, policy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const GuardedResult& served = r.value();
  EXPECT_GT(served.relative_error, policy.accept_error);
  EXPECT_DOUBLE_EQ(served.relative_error,
                   EstimationError(target, served.measured_ratio));
  EXPECT_LE(served.compressions, 2);
  EXPECT_TRUE(served.tier == ServingTier::kModelEstimate ||
              served.tier == ServingTier::kRefined)
      << ServingTierName(served.tier);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue(TierCounterName(served.tier)), 1u);
  EXPECT_EQ(TotalServed(delta), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_exhausted_total"), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_compressions_total"),
            static_cast<uint64_t>(served.compressions));
  EXPECT_EQ(delta.CounterValue(kSzCompressions),
            static_cast<uint64_t>(served.compressions));
}

TEST_F(GuardMetricsTest, FrazTierCountsEveryProbe) {
  // An untrained pipeline serves through the knob search: every probe
  // reaches the codec counter.
  Fxrz untrained(MakeCompressor("sz"));
  const StatusOr<GuardedResult> r =
      untrained.GuardedCompressToRatio((*fields_)[3], MidTarget());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().tier, ServingTier::kKnobSearch);
  ASSERT_GT(r.value().compressions, 1);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_guard_compressions_total"),
            static_cast<uint64_t>(r.value().compressions));
  EXPECT_EQ(delta.CounterValue(kSzCompressions),
            static_cast<uint64_t>(r.value().compressions));
}

TEST_F(GuardMetricsTest, TrainingCountsEveryCompressorRun) {
  Fxrz fresh(MakeCompressor("sz"));
  std::vector<const Tensor*> train;
  for (size_t i = 0; i < 3; ++i) train.push_back(&(*fields_)[i]);
  const TrainingBreakdown breakdown = fresh.Train(train);
  ASSERT_GT(breakdown.compressor_runs, 0u);
  EXPECT_EQ(Delta().CounterValue(kSzCompressions), breakdown.compressor_runs);
}

TEST_F(GuardMetricsTest, ConstantFieldCountsItsOwnTier) {
  Tensor constant({8, 8, 8});
  for (size_t i = 0; i < constant.size(); ++i) constant[i] = 1.5f;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio(constant, 16.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().tier, ServingTier::kConstantField);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue(TierCounterName(ServingTier::kConstantField)),
            1u);
  EXPECT_EQ(TotalServed(delta), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_compressions_total"), 1u);
}

TEST_F(GuardMetricsTest, AdmissionRejectCountsAndCompressesNothing) {
  // Target below 1 fails admission before any analysis or codec work.
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], 0.5);
  ASSERT_FALSE(r.ok());

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_guard_requests_total"), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_admission_rejected_total"), 1u);
  EXPECT_EQ(TotalServed(delta), 0u);
  EXPECT_EQ(delta.CounterValue("fxrz_guard_compressions_total"), 0u);
  EXPECT_EQ(delta.CounterValue(kSzCompressions), 0u);
  EXPECT_EQ(delta.CounterValue("fxrz_analysis_cache_misses_total"), 0u);
}

TEST_F(GuardMetricsTest, SpreadGateCountsLowConfidence) {
  GuardOptions options;
  options.max_knob_spread = 0.0;  // any ensemble disagreement trips the gate
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r.value().low_confidence);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_guard_low_confidence_total"), 1u);
  EXPECT_EQ(delta.CounterValue(TierCounterName(ServingTier::kKnobSearch)),
            1u);
  EXPECT_EQ(TotalServed(delta), 1u);
}

TEST_F(GuardMetricsTest, RepeatedTensorHitsAnalysisCache) {
  // First serve of a fresh tensor charges exactly one cache miss (one
  // feature extraction); serving the same tensor again is all hits.
  Tensor query = GaussianRandomField3D(16, 16, 16, 3.0, 71);
  const StatusOr<GuardedResult> first =
      fxrz_->GuardedCompressToRatio(query, MidTarget());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const MetricsSnapshot after_first = MetricsSnapshot::Capture();
  EXPECT_EQ(MetricsSnapshot::Delta(before_, after_first)
                .CounterValue("fxrz_analysis_cache_misses_total"),
            1u);

  const StatusOr<GuardedResult> second =
      fxrz_->GuardedCompressToRatio(query, MidTarget());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  const MetricsSnapshot repeat =
      MetricsSnapshot::Delta(after_first, MetricsSnapshot::Capture());
  EXPECT_EQ(repeat.CounterValue("fxrz_analysis_cache_misses_total"), 0u);
  EXPECT_GE(repeat.CounterValue("fxrz_analysis_cache_hits_total"), 1u);
}

TEST_F(GuardMetricsTest, DriftObservationsFlowToMetrics) {
  DriftMonitor drift;
  GuardOptions options;
  options.drift = &drift;
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(drift.observations(), 1u);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_drift_observations_total"), 1u);
  EXPECT_EQ(delta.CounterValue("fxrz_drift_dropped_total"), 0u);
  // Gauges carry the monitor's current state (point-in-time, not a delta).
  EXPECT_DOUBLE_EQ(delta.GaugeValue("fxrz_drift_rolling_error"),
                   drift.rolling_error());
}

// Fault-injected escalation: the injected model-tier compression failure
// must show up as exactly one knob-search serve -- the tier counters are
// the operator-visible record of the recovery the fault ladder performed.
TEST_F(GuardMetricsTest, FaultEscalationRecordsExactTierCounts) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
  }
  fault::ResetAll();
  GuardOptions options;
  // Open the confidence gate so the model tier runs and eats the fault.
  options.envelope_slack = 10.0;
  options.max_knob_spread = 100.0;
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  const StatusOr<GuardedResult> r =
      fxrz_->GuardedCompressToRatio((*fields_)[3], MidTarget(), options);
  fault::ResetAll();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().tier, ServingTier::kKnobSearch);

  const MetricsSnapshot delta = Delta();
  EXPECT_EQ(delta.CounterValue("fxrz_guard_requests_total"), 1u);
  EXPECT_EQ(delta.CounterValue(TierCounterName(ServingTier::kKnobSearch)),
            1u);
  EXPECT_EQ(TotalServed(delta), 1u);
  // The injected failure is visible on the codec's failure counter.
  EXPECT_EQ(
      delta.CounterValue("fxrz_codec_compress_failures_total{codec=\"sz\"}"),
      1u);
}

}  // namespace
}  // namespace fxrz
