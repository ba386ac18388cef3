// A bad config is a failed Compress, never an abort: every codec rejects
// non-finite, zero and negative knobs with a non-OK Status, and the failure
// is counted once under the codec's own label.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/tensor.h"
#include "src/util/metrics.h"

namespace fxrz {
namespace {

Tensor SmallField() {
  Tensor t({8, 9, 10});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  }
  return t;
}

uint64_t Failures(const Compressor& codec) {
  return metrics::MetricsSnapshot::Capture().CounterValue(
      "fxrz_codec_compress_failures_total{codec=\"" + codec.name() + "\"}");
}

class BadConfigTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BadConfigTest, ReturnsStatusAndCountsOneFailure) {
  const std::unique_ptr<Compressor> codec = MakeCompressor(GetParam());
  const Tensor data = SmallField();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double config :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0, -1.0}) {
    const uint64_t before = Failures(*codec);
    const StatusOr<std::vector<uint8_t>> out = codec->Compress(data, config);
    EXPECT_FALSE(out.ok()) << GetParam() << " config " << config;
    if (metrics::Enabled()) {
      EXPECT_EQ(Failures(*codec), before + 1)
          << GetParam() << " config " << config;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, BadConfigTest,
    ::testing::Values("sz", "sz3", "mgard", "zfp", "fpzip"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// mgard's quantization range depends on the data: an error bound that is
// valid in general but far too small for the field's magnitude fails
// cleanly instead of aborting.
TEST(BadConfigTest, MgardQuantizationOverflowIsAStatus) {
  const std::unique_ptr<Compressor> mgard = MakeCompressor("mgard");
  Tensor data({8, 8, 8});
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 2 == 0 ? 0.0 : 1e30);
  }
  const uint64_t before = Failures(*mgard);
  const StatusOr<std::vector<uint8_t>> out = mgard->Compress(data, 1e-6);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  if (metrics::Enabled()) {
    EXPECT_EQ(Failures(*mgard), before + 1);
  }
}

}  // namespace
}  // namespace fxrz
