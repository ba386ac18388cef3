#include "src/data/statistics.h"
#include "src/fraz/fraz.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"

namespace fxrz {
namespace {

class FrazTest : public ::testing::Test {
 protected:
  FrazTest() : field_(GaussianRandomField3D(16, 16, 16, 3.0, 201)) {}
  Tensor field_;
};

TEST_F(FrazTest, RespectsIterationBudget) {
  const auto sz = MakeCompressor("sz");
  FrazOptions opts;
  opts.num_bins = 3;
  opts.total_max_iterations = 12;
  opts.tolerance = 0.0;  // never early-exit
  const FrazResult r = FrazSearch(*sz, field_, 25.0, opts);
  EXPECT_EQ(r.compressor_runs, 12);
}

TEST_F(FrazTest, EarlyExitOnTolerance) {
  const auto sz = MakeCompressor("sz");
  FrazOptions opts;
  opts.total_max_iterations = 30;
  opts.tolerance = 0.5;  // very loose: nearly any probe qualifies
  const FrazResult r = FrazSearch(*sz, field_, 20.0, opts);
  EXPECT_LT(r.compressor_runs, 30);
}

TEST_F(FrazTest, ConfigInsideSpace) {
  const auto zfp = MakeCompressor("zfp");
  const ConfigSpace space = zfp->config_space(ValueRange(field_));
  const FrazResult r = FrazSearch(*zfp, field_, 8.0, {});
  EXPECT_GE(r.config, space.min);
  EXPECT_LE(r.config, space.max);
  EXPECT_GT(r.achieved_ratio, 0.0);
  EXPECT_GT(r.search_seconds, 0.0);
}

TEST_F(FrazTest, IntegerSpaceReturnsIntegerConfig) {
  const auto fpzip = MakeCompressor("fpzip");
  const FrazResult r = FrazSearch(*fpzip, field_, 3.0, {});
  EXPECT_EQ(r.config, std::round(r.config));
}

TEST_F(FrazTest, UnreachableTargetReturnsBestEffort) {
  const auto zfp = MakeCompressor("zfp");
  // ZFP cannot reach ratio 10^6; FRaZ must still return its best find.
  FrazOptions opts;
  opts.tolerance = 0.0;
  const FrazResult r = FrazSearch(*zfp, field_, 1e6, opts);
  EXPECT_GT(r.achieved_ratio, 1.0);
  EXPECT_LT(r.achieved_ratio, 1e6);
}

TEST_F(FrazTest, SingleBinWorks) {
  const auto sz = MakeCompressor("sz");
  FrazOptions opts;
  opts.num_bins = 1;
  opts.total_max_iterations = 8;
  const FrazResult r = FrazSearch(*sz, field_, 15.0, opts);
  EXPECT_LE(r.compressor_runs, 8);
  EXPECT_GT(r.achieved_ratio, 0.0);
}

TEST_F(FrazTest, DeathOnBadArguments) {
  const auto sz = MakeCompressor("sz");
  EXPECT_DEATH(FrazSearch(*sz, field_, -1.0, {}), "");
  FrazOptions opts;
  opts.num_bins = 5;
  opts.total_max_iterations = 3;  // fewer iterations than bins
  EXPECT_DEATH(FrazSearch(*sz, field_, 10.0, opts), "");
}

}  // namespace
}  // namespace fxrz
