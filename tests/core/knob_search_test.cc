// Tests for the guard ladder's final tier, the bracketed knob search
// (core/guard.cc): unreachable targets resolve kOutOfRange in at most two
// compressions on every knob shape, reachable ones are served within
// accept_error, and the search starts from the estimate or the config-
// space midpoint. Compressions are counted through the
// fxrz_guard_compressions_total delta, because an error returns no
// GuardedResult.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/core/guard.h"
#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/util/metrics.h"
#include "tests/core/hooked_compressor.h"

namespace fxrz {
namespace {

struct Outcome {
  StatusOr<GuardedResult> result;
  uint64_t compressions;  // guard counter delta; 0 when metrics are off
};

uint64_t GuardCompressions() {
  return metrics::GetCounter("fxrz_guard_compressions_total").Value();
}

Outcome Serve(const Fxrz& fxrz, const Tensor& data, double target,
              const GuardOptions& options = {}) {
  const uint64_t before = GuardCompressions();
  StatusOr<GuardedResult> r =
      fxrz.GuardedCompressToRatio(data, target, options);
  return {std::move(r), GuardCompressions() - before};
}

double RatioAt(const Compressor& codec, const Tensor& data, double config) {
  const StatusOr<std::vector<uint8_t>> bytes = codec.Compress(data, config);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? static_cast<double>(data.size_bytes()) /
                          static_cast<double>(bytes.value().size())
                    : 0.0;
}

// A ratio as the guard's messages print it.
std::string Fmt(double ratio) {
  std::ostringstream out;
  out << ratio;
  return out.str();
}

void ExpectOutOfRange(const Outcome& o, const std::vector<double>& named) {
  ASSERT_FALSE(o.result.ok());
  EXPECT_EQ(o.result.status().code(), StatusCode::kOutOfRange)
      << o.result.status().ToString();
  EXPECT_FALSE(StatusIsRetryable(o.result.status()));
  for (double ratio : named) {
    EXPECT_NE(o.result.status().message().find(Fmt(ratio)), std::string::npos)
        << "message should name ratio " << Fmt(ratio) << ": "
        << o.result.status().message();
  }
  if (metrics::Enabled()) {
    EXPECT_GE(o.compressions, 1u);
    EXPECT_LE(o.compressions, 2u);
  }
}

class KnobSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fields_ = new std::vector<Tensor>();
    for (uint64_t s = 81; s <= 84; ++s) {
      fields_->push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
    }
  }
  static void TearDownTestSuite() {
    delete fields_;
    fields_ = nullptr;
  }

  static std::unique_ptr<Fxrz> Trained(const std::string& codec) {
    auto fxrz = std::make_unique<Fxrz>(MakeCompressor(codec));
    fxrz->Train({&(*fields_)[0], &(*fields_)[1], &(*fields_)[2]});
    return fxrz;
  }
  static const Tensor& Query() { return (*fields_)[3]; }

  static std::vector<Tensor>* fields_;
};

std::vector<Tensor>* KnobSearchTest::fields_ = nullptr;

TEST_F(KnobSearchTest, CeilingOnContinuousKnobIsOutOfRange) {
  const std::unique_ptr<Fxrz> sz = Trained("sz");
  const ConfigSpace space = sz->compressor().config_space(Query());
  const double ceiling = RatioAt(sz->compressor(), Query(), space.max);
  ASSERT_LT(ceiling * 1.5, 1e6);
  const Outcome o = Serve(*sz, Query(), 1e6);
  ExpectOutOfRange(o, {ceiling});
  EXPECT_NE(o.result.status().message().find("highest reachable ratio"),
            std::string::npos);
}

TEST_F(KnobSearchTest, FloorOnIntegerKnobIsOutOfRange) {
  // Even at full precision fpzip shrinks a float field a little: under a
  // tight accept_error its floor, at the maximum precision, misses the
  // lowest admissible target.
  const std::unique_ptr<Fxrz> fpzip = Trained("fpzip");
  const ConfigSpace space = fpzip->compressor().config_space(Query());
  const double floor = RatioAt(fpzip->compressor(), Query(), space.max);
  GuardOptions options;
  options.accept_error = 0.02;
  ASSERT_GT(floor, 1.0 / (1.0 - options.accept_error));
  const Outcome o = Serve(*fpzip, Query(), 1.0, options);
  ExpectOutOfRange(o, {floor});
  EXPECT_NE(o.result.status().message().find("lowest reachable ratio"),
            std::string::npos);
}

TEST_F(KnobSearchTest, CeilingOnIntegerKnobIsOutOfRange) {
  // fpzip's ratio falls as precision grows: its ceiling is the minimum.
  const std::unique_ptr<Fxrz> fpzip = Trained("fpzip");
  const ConfigSpace space = fpzip->compressor().config_space(Query());
  ASSERT_TRUE(space.integer);
  const double ceiling = RatioAt(fpzip->compressor(), Query(), space.min);
  const Outcome o = Serve(*fpzip, Query(), 1e4);
  ExpectOutOfRange(o, {ceiling});
}

TEST_F(KnobSearchTest, TargetBetweenStairsOnStairwiseKnobIsOutOfRange) {
  // zfp's ratio moves in power-of-two stairs of its tolerance. Take the
  // first pair of adjacent stairs inside the trained ratio range whose gap
  // leaves their geometric mean out of accept_error from both.
  const std::unique_ptr<Fxrz> zfp = Trained("zfp");
  const Compressor& codec = zfp->compressor();
  const ConfigSpace space = codec.config_space(Query());
  ASSERT_TRUE(space.power_of_two_steps);
  const double accept = GuardOptions().accept_error;
  double lower = 0.0, upper = 0.0, target = 0.0;
  for (int u = static_cast<int>(std::floor(std::log2(space.min)));
       std::ldexp(1.0, u + 1) <= space.max; ++u) {
    const double r0 = RatioAt(codec, Query(),
                              std::max(space.min, std::ldexp(1.0, u)));
    const double r1 = RatioAt(codec, Query(), std::ldexp(1.0, u + 1));
    const double t = std::sqrt(r0 * r1);
    if (t > zfp->model().min_trained_ratio() &&
        t < zfp->model().max_trained_ratio() &&
        EstimationError(t, r0) > accept && EstimationError(t, r1) > accept) {
      lower = r0;
      upper = r1;
      target = t;
      break;
    }
  }
  ASSERT_GT(target, 0.0) << "no stair gap wider than accept_error";
  const Outcome o = Serve(*zfp, Query(), target);
  ExpectOutOfRange(o, {lower, upper});
  EXPECT_NE(o.result.status().message().find("adjacent knob steps"),
            std::string::npos);
}

TEST_F(KnobSearchTest, ReachableTargetBetweenProbesIsServed) {
  // Untrained, so no model tier: the search's first probe is the
  // config-space midpoint, which misses this target; the bracket then
  // closes on it.
  for (const char* name : {"sz", "fpzip"}) {
    SCOPED_TRACE(name);
    const Fxrz fxrz(MakeCompressor(name));
    const Compressor& codec = fxrz.compressor();
    const ConfigSpace space = codec.config_space(Query());
    const double config =
        space.integer
            ? std::round(space.min + 0.25 * (space.max - space.min))
            : std::pow(10.0, std::log10(space.min) +
                                 0.7 * (std::log10(space.max) -
                                        std::log10(space.min)));
    const double target = RatioAt(codec, Query(), config);
    const double mid = space.log_scale ? std::sqrt(space.min * space.max)
                                       : 0.5 * (space.min + space.max);
    GuardOptions options;
    options.accept_error = 0.02;
    ASSERT_GT(EstimationError(target, RatioAt(codec, Query(), mid)),
              options.accept_error);

    const Outcome o = Serve(fxrz, Query(), target, options);
    ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
    const GuardedResult& r = o.result.value();
    EXPECT_EQ(r.tier, ServingTier::kKnobSearch);
    EXPECT_LE(r.relative_error, options.accept_error);
    EXPECT_GE(r.compressions, 2);
    EXPECT_LE(r.compressions, 8);
    if (metrics::Enabled()) {
      EXPECT_EQ(o.compressions, static_cast<uint64_t>(r.compressions));
    }
  }
}

TEST_F(KnobSearchTest, UntrainedSearchStartsAtTheMidpoint) {
  auto hooked = std::make_unique<HookedCompressor>(MakeCompressor("sz"));
  HookedCompressor* hook = hooked.get();
  const Fxrz untrained(std::move(hooked));
  hook->set_hook([](int) { return Status::Ok(); });
  const Outcome o = Serve(untrained, Query(), 20.0);
  ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
  EXPECT_EQ(o.result.value().tier, ServingTier::kKnobSearch);
  const ConfigSpace space = untrained.compressor().config_space(Query());
  ASSERT_FALSE(hook->configs().empty());
  EXPECT_DOUBLE_EQ(hook->configs()[0], std::sqrt(space.min * space.max));
}

TEST_F(KnobSearchTest, LowConfidenceEstimateIsTheFirstProbe) {
  auto hooked = std::make_unique<HookedCompressor>(MakeCompressor("sz"));
  HookedCompressor* hook = hooked.get();
  Fxrz fxrz(std::move(hooked));
  fxrz.Train({&(*fields_)[0], &(*fields_)[1], &(*fields_)[2]});
  const double target = fxrz.model().ValidTargetRatios(3)[1];

  GuardOptions open;
  open.max_knob_spread = 100.0;
  open.envelope_slack = 10.0;
  hook->set_hook([](int) { return Status::Ok(); });
  const Outcome confident = Serve(fxrz, Query(), target, open);
  ASSERT_TRUE(confident.result.ok()) << confident.result.status().ToString();
  ASSERT_FALSE(confident.result.value().low_confidence);
  const double estimate = hook->configs().at(0);

  GuardOptions gated;
  gated.max_knob_spread = 0.0;  // any ensemble disagreement trips the gate
  hook->set_hook([](int) { return Status::Ok(); });
  const Outcome o = Serve(fxrz, Query(), target, gated);
  ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
  EXPECT_TRUE(o.result.value().low_confidence);
  EXPECT_EQ(o.result.value().tier, ServingTier::kKnobSearch);
  ASSERT_FALSE(hook->configs().empty());
  EXPECT_DOUBLE_EQ(hook->configs()[0], estimate);
  // The estimate is spent, not skipped: when it met the target on the
  // confident path, the gated request is served by it alone.
  if (confident.result.value().tier == ServingTier::kModelEstimate) {
    EXPECT_EQ(o.result.value().compressions, 1);
    EXPECT_EQ(o.result.value().config, confident.result.value().config);
  }
}

TEST_F(KnobSearchTest, FaultOnSearchProbeIsRetryableAndNamed) {
  auto hooked = std::make_unique<HookedCompressor>(MakeCompressor("sz"));
  HookedCompressor* hook = hooked.get();
  Fxrz fxrz(std::move(hooked));
  fxrz.Train({&(*fields_)[0], &(*fields_)[1], &(*fields_)[2]});
  GuardOptions options;
  options.max_knob_spread = 100.0;
  options.envelope_slack = 10.0;
  options.accept_error = 1e-9;  // the model tier misses
  options.max_refine_compressions = 0;
  hook->set_hook([](int run) {
    return run == 1 ? Status::Unavailable("backend hiccup") : Status::Ok();
  });
  const Outcome o =
      Serve(fxrz, Query(), fxrz.model().ValidTargetRatios(3)[1], options);
  ASSERT_FALSE(o.result.ok());
  EXPECT_EQ(o.result.status().code(), StatusCode::kUnavailable)
      << o.result.status().ToString();
  EXPECT_TRUE(StatusIsRetryable(o.result.status()));
  EXPECT_NE(o.result.status().message().find(
                "search tier: Unavailable: backend hiccup"),
            std::string::npos)
      << o.result.status().message();
  EXPECT_EQ(hook->configs().size(), 2u) << "the failed probe ends the search";
  if (metrics::Enabled()) {
    EXPECT_EQ(o.compressions, 1u);
  }
}

}  // namespace
}  // namespace fxrz
