#include "src/compressors/relative.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/core/pipeline.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"

namespace fxrz {
namespace {

TEST(RelativeErrorTest, BoundScalesWithValueRange) {
  // Same structure at two amplitudes: a relative bound of 1e-3 must keep
  // the *relative* distortion equal, i.e. absolute error scales by 100x.
  const Tensor base = GaussianRandomField3D(16, 16, 16, 3.0, 501);
  Tensor big = base;
  for (size_t i = 0; i < big.size(); ++i) big[i] *= 100.0f;

  RelativeErrorCompressor rel(MakeCompressor("sz"));
  for (const Tensor* t :
       {static_cast<const Tensor*>(&base), static_cast<const Tensor*>(&big)}) {
    const std::vector<uint8_t> bytes = rel.Compress(*t, 1e-3).value();
    Tensor rec;
    ASSERT_TRUE(rel.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double range = ComputeSummary(*t).value_range;
    EXPECT_LE(ComputeDistortion(*t, rec).max_abs_error, 1e-3 * range * 1.01);
  }
}

TEST(RelativeErrorTest, NameAndSpace) {
  RelativeErrorCompressor rel(MakeCompressor("mgard"));
  EXPECT_EQ(rel.name(), "mgard-rel");
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 502);
  const ConfigSpace space = rel.config_space(ValueRange(g));
  EXPECT_EQ(space.min, 1e-6);
  EXPECT_EQ(space.max, 0.3);
  EXPECT_TRUE(space.log_scale);
  EXPECT_FALSE(space.integer);
}

TEST(RelativeErrorTest, StreamsInteroperateWithBase) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 503);
  RelativeErrorCompressor rel(MakeCompressor("zfp"));
  const auto zfp = MakeCompressor("zfp");
  const std::vector<uint8_t> bytes = rel.Compress(g, 1e-2).value();
  Tensor rec;
  ASSERT_TRUE(zfp->Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_EQ(rec.dims(), g.dims());
}

TEST(RelativeErrorTest, FxrzRunsOnTopOfAdapter) {
  // FXRZ trains and estimates over the adapted knob unchanged --
  // compressor-agnosticism extends to knob semantics.
  std::vector<Tensor> fields;
  for (uint64_t s : {504, 505, 506}) {
    fields.push_back(GaussianRandomField3D(16, 16, 16, 3.0, s));
  }
  std::vector<const Tensor*> train = {&fields[0], &fields[1]};

  Fxrz fxrz(std::make_unique<RelativeErrorCompressor>(MakeCompressor("sz")));
  fxrz.Train(train);
  const auto result =
      fxrz.GuardedCompressToRatio(fields[2], 15.0, PaperPolicy()).value();
  EXPECT_GE(result.config, 1e-6);
  EXPECT_LE(result.config, 0.3);
  EXPECT_LT(EstimationError(15.0, result.measured_ratio), 0.6);
}

TEST(RelativeErrorDeathTest, RejectsIntegerKnobBase) {
  RelativeErrorCompressor rel(MakeCompressor("fpzip"));
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 507);
  EXPECT_DEATH(rel.config_space(ValueRange(g)), "");
}

}  // namespace
}  // namespace fxrz
