// Property tests shared by all four compressors: shape preservation,
// error-bound enforcement, monotone compression ratios, and corruption
// rejection, swept over compressors x datasets x configs with
// parameterized gtest.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/data/tensor.h"
#include "src/util/random.h"
#include "tests/compressors/measured_ratio.h"

namespace fxrz {
namespace {

// Test datasets of varied rank/shape/content.
Tensor MakeDataset(const std::string& kind) {
  if (kind == "smooth3d") {
    Tensor t({16, 16, 16});
    for (size_t z = 0; z < 16; ++z) {
      for (size_t y = 0; y < 16; ++y) {
        for (size_t x = 0; x < 16; ++x) {
          t.at({z, y, x}) = static_cast<float>(
              std::sin(0.3 * z) + std::cos(0.25 * y) + 0.1 * x);
        }
      }
    }
    return t;
  }
  if (kind == "grf3d") {
    return GaussianRandomField3D(16, 16, 16, 3.0, 99);
  }
  if (kind == "noisy2d") {
    Rng rng(5);
    Tensor t({37, 53});  // non-multiple-of-4 extents
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(rng.NextGaussian() * 10.0 + 100.0);
    }
    return t;
  }
  if (kind == "ramp1d") {
    Tensor t({1000});
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(0.001 * i + std::sin(0.05 * i));
    }
    return t;
  }
  if (kind == "field4d") {
    Rng rng(6);
    Tensor t({3, 10, 11, 12});
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(std::sin(0.01 * i) + 0.05 * rng.NextGaussian());
    }
    return t;
  }
  if (kind == "constant") {
    Tensor t({8, 8, 8});
    for (size_t i = 0; i < t.size(); ++i) t[i] = 3.25f;
    return t;
  }
  if (kind == "sparse") {
    // Mostly zero with a few spikes (QCLOUD-like).
    Rng rng(7);
    Tensor t({12, 20, 20});
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = rng.NextDouble() < 0.03
                 ? static_cast<float>(rng.Uniform(0.5, 2.0))
                 : 0.0f;
    }
    return t;
  }
  ADD_FAILURE() << "unknown dataset kind " << kind;
  return Tensor({1});
}

const std::string kDatasets[] = {"smooth3d", "grf3d",    "noisy2d", "ramp1d",
                                 "field4d",  "constant", "sparse"};

const std::string kCompressors[] = {"sz", "sz3", "zfp", "fpzip", "mgard"};

class CompressorRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  std::unique_ptr<Compressor> compressor() const {
    return MakeCompressor(std::get<0>(GetParam()));
  }
  Tensor dataset() const { return MakeDataset(std::get<1>(GetParam())); }
};

TEST_P(CompressorRoundTripTest, ShapeAndFiniteness) {
  const auto comp = compressor();
  const Tensor data = dataset();
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config = space.integer
                            ? std::round((space.min + space.max) / 2)
                            : std::sqrt(space.min * space.max);
  const std::vector<uint8_t> bytes = comp->Compress(data, config).value();
  ASSERT_FALSE(bytes.empty());
  Tensor rec;
  const Status st = comp->Decompress(bytes.data(), bytes.size(), &rec);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rec.dims(), data.dims());
  for (size_t i = 0; i < rec.size(); ++i) {
    ASSERT_TRUE(std::isfinite(rec[i])) << "index " << i;
  }
}

TEST_P(CompressorRoundTripTest, ErrorBoundHonoredAcrossConfigs) {
  const auto comp = compressor();
  const Tensor data = dataset();
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const SummaryStats stats = ComputeSummary(data);

  for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    double config;
    if (space.log_scale) {
      config = std::pow(10.0, std::log10(space.min) +
                                  f * (std::log10(space.max) -
                                       std::log10(space.min)));
    } else {
      config = space.min + f * (space.max - space.min);
    }
    if (space.integer) config = std::round(config);

    const std::vector<uint8_t> bytes = comp->Compress(data, config).value();
    Tensor rec;
    ASSERT_TRUE(comp->Decompress(bytes.data(), bytes.size(), &rec).ok());
    const DistortionStats dist = ComputeDistortion(data, rec);

    const std::string name = comp->name();
    if (name == "sz" || name == "sz3" || name == "mgard" || name == "zfp") {
      // Absolute error bound semantics. Allow a whisker of float rounding
      // slack proportional to the data magnitude.
      const double slack =
          1e-5 * std::max(std::fabs(stats.min), std::fabs(stats.max)) + 1e-12;
      EXPECT_LE(dist.max_abs_error, config + slack)
          << name << " config=" << config;
    } else {
      // FPZIP precision semantics: error shrinks as precision grows; at
      // max precision the reconstruction is exact up to the ordered-int
      // truncation of the lowest bit.
      if (config >= 32) {
        EXPECT_EQ(dist.max_abs_error, 0.0);
      }
    }
  }
}

TEST_P(CompressorRoundTripTest, RatioRespondsMonotonicallyToConfig) {
  const auto comp = compressor();
  const Tensor data = dataset();
  const std::string kind = std::get<1>(GetParam());
  if (kind == "constant") GTEST_SKIP() << "ratio saturates on constant data";
  const ConfigSpace space = comp->config_space(ValueRange(data));

  std::vector<double> ratios;
  for (double f : {0.05, 0.5, 0.95}) {
    double config;
    if (space.log_scale) {
      config = std::pow(10.0, std::log10(space.min) +
                                  f * (std::log10(space.max) -
                                       std::log10(space.min)));
    } else {
      config = space.min + f * (space.max - space.min);
    }
    if (space.integer) config = std::round(config);
    ratios.push_back(MeasuredRatio(*comp, data, config));
  }
  if (space.ratio_increases) {
    EXPECT_LE(ratios[0], ratios[2] * 1.02)
        << "ratio should grow with the knob";
  } else {
    EXPECT_GE(ratios[0], ratios[2] * 0.98)
        << "ratio should shrink with the knob";
  }
}

TEST_P(CompressorRoundTripTest, RejectsCorruptHeader) {
  const auto comp = compressor();
  const Tensor data = dataset();
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config =
      space.integer ? std::round((space.min + space.max) / 2)
                    : std::sqrt(space.min * space.max);
  std::vector<uint8_t> bytes = comp->Compress(data, config).value();
  Tensor rec;
  // Wrong magic.
  std::vector<uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(comp->Decompress(bad.data(), bad.size(), &rec).ok());
  // Truncated to header only.
  EXPECT_FALSE(comp->Decompress(bytes.data(), 6, &rec).ok());
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<std::string, std::string>>&
        info) {
  return std::get<0>(info.param) + "_" + std::get<1>(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompressorsAllDatasets, CompressorRoundTripTest,
    ::testing::Combine(::testing::ValuesIn(kCompressors),
                       ::testing::ValuesIn(kDatasets)),
    ParamName);

TEST(CompressorRegistryTest, MakeAllNames) {
  for (const std::string& name : AllCompressorNames()) {
    const auto comp = MakeCompressor(name);
    ASSERT_NE(comp, nullptr);
    EXPECT_EQ(comp->name(), name);
  }
}

// The knob range is a function of the value range alone: the error-bound
// codecs scale [1e-6, 0.3] by it (by 1 for a zero range), fpzip ignores
// it, and the chunked decorator passes it to its base. Both ends are exact, and the shape flags never move.
TEST(CompressorRegistryTest, ConfigSpaceDependsOnlyOnTheValueRange) {
  struct Expected {
    std::unique_ptr<Compressor> codec;
    bool scales = false;  // min/max = {lo, hi} x range, else {lo, hi}
    double lo = 0.0, hi = 0.0;
    bool log_scale = true, integer = false, ratio_increases = true;
    bool power_of_two_steps = false;
  };
  std::vector<Expected> cases;
  for (const char* name : {"sz", "sz3", "mgard"}) {
    cases.push_back({MakeCompressor(name), true, 1e-6, 0.3});
  }
  cases.push_back({MakeCompressor("zfp"), true, 1e-6, 0.3, true, false, true,
                   true});
  cases.push_back({MakeCompressor("fpzip"), false, 4, 32, false, true, false});
  cases.push_back({std::make_unique<ChunkedCompressor>(MakeCompressor("zfp")),
                   true, 1e-6, 0.3, true, false, true, true});
  for (const Expected& c : cases) {
    for (double r : {0.0, 1e-30, 1.0, 3.5e38}) {
      SCOPED_TRACE(c.codec->name() + " at range " + std::to_string(r));
      const double scale = !c.scales ? 1.0 : r > 0 ? r : 1.0;
      const ConfigSpace space = c.codec->config_space(r);
      EXPECT_EQ(space.min, c.lo * scale);
      EXPECT_EQ(space.max, c.hi * scale);
      EXPECT_EQ(space.log_scale, c.log_scale);
      EXPECT_EQ(space.integer, c.integer);
      EXPECT_EQ(space.ratio_increases, c.ratio_increases);
      EXPECT_EQ(space.power_of_two_steps, c.power_of_two_steps);
    }
  }
}

TEST(CompressorRegistryTest, CrossCompressorStreamsRejected) {
  const Tensor data = MakeDataset("smooth3d");
  const auto sz = MakeCompressor("sz");
  const auto zfp = MakeCompressor("zfp");
  const std::vector<uint8_t> bytes =
      sz->Compress(data, sz->config_space(ValueRange(data)).min * 10).value();
  Tensor rec;
  EXPECT_FALSE(zfp->Decompress(bytes.data(), bytes.size(), &rec).ok());
}

TEST(CompressorRegistryTest, EmptyTensorIsInvalidArgument) {
  // Every codec, and a decorator around one, reports an empty input as a
  // Status instead of aborting.
  std::vector<std::unique_ptr<Compressor>> codecs;
  for (const std::string& name : ExtendedCompressorNames()) {
    codecs.push_back(MakeCompressor(name));
  }
  codecs.push_back(MakeArchiveCompressorOrNull("sz-chunked"));
  for (const auto& comp : codecs) {
    const StatusOr<std::vector<uint8_t>> archive = comp->Compress(Tensor(), 1);
    EXPECT_EQ(archive.status().code(), StatusCode::kInvalidArgument)
        << comp->name();
  }
}

}  // namespace
}  // namespace fxrz
