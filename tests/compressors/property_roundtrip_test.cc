// Seeded property-based round-trip sweep.
//
// For every codec, a fixed-seed generator draws randomized shapes, content
// styles, and knob values; each draw must round-trip with the codec's
// error-bound contract intact. On top of the numerical contract, the
// sweep cross-checks the observability layer: the per-codec
// bytes-in/bytes-out counters must move by exactly the tensor and archive
// sizes the test itself observed (skipped under FXRZ_METRICS=OFF).
//
// Everything derives from kSweepSeed, so a failure reproduces exactly;
// the per-case seed is printed on failure.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/statistics.h"
#include "src/data/tensor.h"
#include "src/util/metrics.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

constexpr uint64_t kSweepSeed = 0xF8A2u;
constexpr int kCasesPerCodec = 6;

// Random tensor: rank 1-4, randomized extents (kept small enough that six
// cases per codec stay fast on one core), and one of three content styles.
Tensor RandomTensor(Rng& rng) {
  const int rank = 1 + static_cast<int>(rng.NextUint64() % 4);
  std::vector<size_t> dims(rank);
  size_t total = 1;
  for (int d = 0; d < rank; ++d) {
    // Deliberately odd extents: strides that are not multiples of the
    // codecs' internal block sizes (zfp 4^d blocks, sz strides).
    const size_t lo = rank >= 3 ? 5 : 9;
    const size_t hi = rank >= 3 ? 17 : 101;
    dims[d] = lo + rng.NextUint64() % (hi - lo + 1);
    total *= dims[d];
  }
  Tensor t(dims);
  const int style = static_cast<int>(rng.NextUint64() % 3);
  const double scale = rng.Uniform(0.1, 50.0);
  const double offset = rng.Uniform(-10.0, 10.0);
  const double freq = rng.Uniform(0.01, 0.4);
  for (size_t i = 0; i < total; ++i) {
    double v = 0.0;
    switch (style) {
      case 0:  // smooth oscillation
        v = std::sin(freq * static_cast<double>(i)) * scale + offset;
        break;
      case 1:  // smooth + noise
        v = std::sin(freq * static_cast<double>(i)) * scale +
            rng.NextGaussian() * 0.05 * scale + offset;
        break;
      default:  // pure Gaussian noise
        v = rng.NextGaussian() * scale + offset;
        break;
    }
    t[i] = static_cast<float>(v);
  }
  return t;
}

// A random knob value inside the codec's declared space, honoring its
// log/integer structure.
double RandomConfig(Rng& rng, const ConfigSpace& space) {
  const double f = rng.NextDouble();
  double config;
  if (space.log_scale) {
    config = std::pow(10.0, std::log10(space.min) +
                                f * (std::log10(space.max) -
                                     std::log10(space.min)));
  } else {
    config = space.min + f * (space.max - space.min);
  }
  if (space.integer) config = std::round(config);
  return std::min(std::max(config, space.min), space.max);
}

class PropertyRoundTripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PropertyRoundTripTest, SeededSweepHonorsContractAndMetrics) {
  const std::string codec_name = GetParam();
  const std::unique_ptr<Compressor> codec = MakeCompressor(codec_name);
  // One deterministic stream per codec so adding a codec never reshuffles
  // another codec's cases.
  uint64_t codec_salt = 0;
  for (char c : codec_name) {
    codec_salt = codec_salt * 131 + static_cast<unsigned char>(c);
  }
  Rng seeder(kSweepSeed ^ codec_salt);

  for (int i = 0; i < kCasesPerCodec; ++i) {
    const uint64_t case_seed = seeder.NextUint64();
    SCOPED_TRACE(codec_name + " case " + std::to_string(i) + " seed " +
                 std::to_string(case_seed));
    Rng rng(case_seed);
    const Tensor data = RandomTensor(rng);
    const ConfigSpace space = codec->config_space(ValueRange(data));
    const double config = RandomConfig(rng, space);
    const SummaryStats stats = ComputeSummary(data);

    const metrics::MetricsSnapshot before = metrics::MetricsSnapshot::Capture();

    const StatusOr<std::vector<uint8_t>> cs = codec->Compress(data, config);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    const std::vector<uint8_t>& archive = cs.value();
    ASSERT_FALSE(archive.empty());

    Tensor rec;
    const Status ds = codec->Decompress(archive.data(), archive.size(), &rec);
    ASSERT_TRUE(ds.ok()) << ds.ToString();
    ASSERT_EQ(rec.dims(), data.dims());

    // Error-bound compliance per knob semantics.
    const DistortionStats dist = ComputeDistortion(data, rec);
    const double magnitude =
        std::max(std::fabs(stats.min), std::fabs(stats.max));
    if (codec_name == "fpzip") {
      // Precision semantics: only max precision guarantees a tight bound.
      if (config >= 32) {
        EXPECT_EQ(dist.max_abs_error, 0.0);
      }
    } else {
      const double slack = 1e-5 * magnitude + 1e-12;
      EXPECT_LE(dist.max_abs_error, config + slack)
          << "absolute eb " << config;
    }

    if (!metrics::Enabled()) continue;
    // The byte-flow counters must match the sizes this very call moved.
    const metrics::MetricsSnapshot delta = metrics::MetricsSnapshot::Delta(
        before, metrics::MetricsSnapshot::Capture());
    const std::string prefix = "fxrz_codec_";
    const std::string suffix = "{codec=\"" + codec->name() + "\"}";
    EXPECT_EQ(delta.CounterValue(prefix + "compress_total" + suffix), 1u);
    EXPECT_EQ(delta.CounterValue(prefix + "compress_bytes_in_total" + suffix),
              data.size_bytes());
    EXPECT_EQ(delta.CounterValue(prefix + "compress_bytes_out_total" + suffix),
              archive.size());
    EXPECT_EQ(delta.CounterValue(prefix + "decompress_total" + suffix), 1u);
    EXPECT_EQ(delta.CounterValue(prefix + "decompress_bytes_in_total" +
                                 suffix),
              archive.size());
    EXPECT_EQ(delta.CounterValue(prefix + "decompress_bytes_out_total" +
                                 suffix),
              rec.size_bytes());
    EXPECT_EQ(delta.CounterValue(prefix + "compress_failures_total" + suffix),
              0u);
    // Achieved-ratio histogram saw exactly this call's ratio.
    const metrics::MetricValue* ratio =
        delta.Find(prefix + "achieved_ratio" + suffix);
    ASSERT_NE(ratio, nullptr);
    EXPECT_EQ(ratio->count, 1u);
    EXPECT_NEAR(ratio->sum,
                static_cast<double>(data.size_bytes()) /
                    static_cast<double>(archive.size()),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, PropertyRoundTripTest,
    ::testing::Values("sz", "sz3", "zfp", "fpzip", "mgard"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace fxrz
