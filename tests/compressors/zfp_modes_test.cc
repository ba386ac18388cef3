// ZFP-specific behaviors: fixed-rate mode, the stairwise ratio curve, the
// fixed-rate-vs-fixed-accuracy gap the paper's Related Work discusses, and
// the segment table that lets both directions run on the shared pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/zfp.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/util/byte_reader.h"
#include "src/util/fault_injection.h"
#include "src/util/metrics.h"
#include "src/util/random.h"
#include "tests/compressors/measured_ratio.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

TEST(ZfpFixedRateTest, HitsRequestedRate) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 101);
  ZfpCompressor zfp;
  for (double rate : {4.0, 8.0, 16.0}) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    const double actual_rate = 8.0 * bytes.size() / g.size();
    // Header overhead aside, the payload is exactly rate bits/value.
    EXPECT_NEAR(actual_rate, rate, 1.0) << rate;
  }
}

TEST(ZfpFixedRateTest, RoundTripsAtEveryRate) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 102);
  ZfpCompressor zfp;
  double prev_rmse = 1e9;
  for (double rate : {2.0, 6.0, 12.0, 24.0}) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    Tensor rec;
    ASSERT_TRUE(zfp.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double rmse = ComputeDistortion(g, rec).rmse;
    EXPECT_LT(rmse, prev_rmse) << "error must shrink as rate grows";
    prev_rmse = rmse;
  }
  EXPECT_LT(prev_rmse, 1e-4);  // 24 bits/value is near-lossless here
}

TEST(ZfpFixedRateTest, FixedAccuracyBeatsFixedRateAtEqualDistortion) {
  // The paper's Related Work: ZFP's fixed-rate mode yields ~2x lower
  // compression ratio than fixed-accuracy at the same distortion.
  const Tensor g = GaussianRandomField3D(32, 32, 32, 3.5, 103);
  ZfpCompressor zfp;
  const double eb = 0.01 * ComputeSummary(g).value_range;

  const std::vector<uint8_t> acc_bytes = zfp.Compress(g, eb).value();
  Tensor acc_rec;
  ASSERT_TRUE(zfp.Decompress(acc_bytes.data(), acc_bytes.size(), &acc_rec).ok());
  const double acc_rmse = ComputeDistortion(g, acc_rec).rmse;

  // Find the rate that matches the accuracy-mode distortion.
  double matching_rate = 32.0;
  for (double rate = 1.0; rate <= 32.0; rate += 1.0) {
    const std::vector<uint8_t> bytes = zfp.CompressFixedRate(g, rate).value();
    Tensor rec;
    ASSERT_TRUE(zfp.Decompress(bytes.data(), bytes.size(), &rec).ok());
    if (ComputeDistortion(g, rec).rmse <= acc_rmse) {
      matching_rate = rate;
      break;
    }
  }
  const double acc_ratio =
      static_cast<double>(g.size_bytes()) / acc_bytes.size();
  const double rate_ratio = 32.0 / matching_rate;
  EXPECT_GT(acc_ratio, rate_ratio)
      << "fixed-accuracy should compress better at equal distortion";
}

TEST(ZfpStairwiseTest, RatioCurveHasFlatSteps) {
  // Sweep the error bound finely; ZFP's ratio must repeat values (stairs)
  // rather than change at every step like SZ.
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 104);
  ZfpCompressor zfp;
  const ConfigSpace space = zfp.config_space(ValueRange(g));
  int flat_steps = 0;
  double prev = -1.0;
  for (int i = 0; i < 40; ++i) {
    const double f = i / 39.0;
    const double eb = std::pow(
        10.0, std::log10(space.min) +
                  f * (std::log10(space.max) - std::log10(space.min)));
    const double ratio = MeasuredRatio(zfp, g, eb);
    if (prev >= 0 && ratio == prev) ++flat_steps;
    prev = ratio;
  }
  EXPECT_GE(flat_steps, 5) << "expected a stairwise ratio curve";
}

TEST(ZfpFixedRateTest, RejectsBadRate) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 105);
  ZfpCompressor zfp;
  for (double rate : {0.0, -1.0, 34.5, 100.0, std::nan("")}) {
    const StatusOr<std::vector<uint8_t>> out = zfp.CompressFixedRate(g, rate);
    ASSERT_FALSE(out.ok()) << rate;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << rate;
  }
  EXPECT_TRUE(zfp.CompressFixedRate(g, 34.0).ok());
}

// Fixed-rate runs take the same instrumented path as Compress: they are
// counted under the codec's label, and an injected compress fault comes
// back as Unavailable.
TEST(ZfpFixedRateTest, CountedLikeCompress) {
  if (!metrics::Enabled()) GTEST_SKIP() << "metrics compiled out";
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 106);
  ZfpCompressor zfp;
  auto counter = [](const std::string& name) {
    return metrics::MetricsSnapshot::Capture().CounterValue(
        name + "{codec=\"zfp\"}");
  };
  const uint64_t calls = counter("fxrz_codec_compress_total");
  const uint64_t failures = counter("fxrz_codec_compress_failures_total");
  const uint64_t bytes_in = counter("fxrz_codec_compress_bytes_in_total");
  ASSERT_TRUE(zfp.CompressFixedRate(g, 8.0).ok());
  ASSERT_FALSE(zfp.CompressFixedRate(g, 0.0).ok());
  EXPECT_EQ(counter("fxrz_codec_compress_total"), calls + 2);
  EXPECT_EQ(counter("fxrz_codec_compress_failures_total"), failures + 1);
  EXPECT_EQ(counter("fxrz_codec_compress_bytes_in_total"),
            bytes_in + g.size_bytes());
}

TEST(ZfpFixedRateTest, InjectedFaultIsUnavailable) {
  if (!fault::Enabled()) GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 107);
  ZfpCompressor zfp;
  fault::ResetAll();
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/0, /*count=*/1);
  const StatusOr<std::vector<uint8_t>> out = zfp.CompressFixedRate(g, 8.0);
  const uint64_t triggered =
      fault::TriggeredCount(fault::Site::kCompressorCompress);
  fault::ResetAll();
  EXPECT_EQ(triggered, 1u);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(zfp.CompressFixedRate(g, 8.0).ok());
}

// ---------------------------------------------------------------- segments
//
// A ZFP2 archive is the codec header (magic, rank, one u64 per dim), the
// mode byte and the f64 parameter, then the segment table -- a u8 segment
// count less one, a u8 bit width w, and every segment's bit length in w
// bits -- and the u64 length-prefixed payload, the segments' bits back to
// back.

// 4-point blocks over the last min(rank, 3) dims, one set per index of the
// leading dims.
size_t BlockCount(const std::vector<size_t>& dims) {
  const size_t nd = std::min<size_t>(dims.size(), 3);
  size_t blocks = 1;
  for (size_t i = 0; i < dims.size(); ++i) {
    blocks *= i + nd < dims.size() ? dims[i] : (dims[i] + 3) / 4;
  }
  return blocks;
}

// The segment table of a ZFP2 archive.
std::vector<uint64_t> SegmentLengths(const std::vector<uint8_t>& archive) {
  ByteReader reader(archive);
  uint32_t rank = 0;
  uint8_t count = 0, width = 0;
  const uint8_t* table = nullptr;
  EXPECT_TRUE(reader.Skip(4) && reader.ReadU32(&rank) &&
              reader.Skip(8 * rank + 1 + 8) && reader.ReadU8(&count) &&
              reader.ReadU8(&width));
  std::vector<uint64_t> lengths(size_t{count} + 1);
  const size_t table_bytes = (lengths.size() * width + 7) / 8;
  EXPECT_TRUE(reader.ReadSpan(table_bytes, &table));
  BitReader bits(table, table_bytes);
  uint64_t sum = 0;
  for (uint64_t& length : lengths) sum += length = bits.ReadBits(width);
  uint64_t payload = 0;
  EXPECT_TRUE(reader.ReadU64(&payload));
  EXPECT_EQ(reader.remaining(), payload);
  EXPECT_EQ((sum + 7) / 8, payload);
  return lengths;
}

// Shapes of ranks 1 to 4 with partial blocks, and the blocks each holds:
// one block, and k * 128 - 1, k * 128 and k * 128 + 1 blocks (one segment
// per 128 blocks), and a shape past the 256-segment cap.
struct SegmentShape {
  std::vector<size_t> dims;
  size_t blocks;
};

const SegmentShape kSegmentShapes[] = {
    {{3}, 1},
    {{2, 3}, 1},
    {{2, 3, 4}, 1},
    {{1, 3, 3, 2}, 1},
    {{507}, 127},
    {{509}, 128},
    {{513}, 129},
    {{1019}, 255},
    {{1022}, 256},
    {{1025}, 257},
    {{59, 67}, 255},
    {{63, 62}, 256},
    {{3, 1027}, 257},
    {{4, 2, 507}, 127},
    {{15, 14, 31}, 128},
    {{9, 4, 170}, 129},
    {{383, 1, 1, 2}, 383},
    {{3, 15, 14, 31}, 384},
    {{5, 25, 43, 3}, 385},
    {{160001}, 40001},
};

Tensor SegmentField(const std::vector<size_t>& dims) {
  Rng rng(108);
  Tensor t(dims);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i)) +
                              0.01 * rng.NextGaussian());
  }
  return t;
}

// Both modes on every shape: the archive and the decoded floats on the
// free pool equal those of a run with the workers parked, where every
// segment codes on the calling thread in order; the segment count follows
// the block count alone, and the fixed-accuracy decode honors its bound.
TEST(ZfpSegmentsTest, PoolAndParkedWorkersAgreeAtEverySegmentCount) {
  const ZfpCompressor zfp;
  for (const SegmentShape& shape : kSegmentShapes) {
    ASSERT_EQ(BlockCount(shape.dims), shape.blocks);
    const Tensor data = SegmentField(shape.dims);
    const double tolerance = 1e-3;
    for (const bool fixed_rate : {false, true}) {
      SCOPED_TRACE(std::to_string(shape.blocks) + " blocks, rank " +
                   std::to_string(shape.dims.size()) +
                   (fixed_rate ? ", fixed rate" : ", fixed accuracy"));
      auto compress = [&] {
        return fixed_rate ? zfp.CompressFixedRate(data, 8.0)
                          : zfp.Compress(data, tolerance);
      };
      const StatusOr<std::vector<uint8_t>> pooled = compress();
      ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
      Tensor from_pool, from_parked;
      const Status pool_st = zfp.Decompress(
          pooled.value().data(), pooled.value().size(), &from_pool);
      StatusOr<std::vector<uint8_t>> parked = Status::Internal("not run");
      Status parked_st = Status::Internal("not run");
      WithWorkersParked([&] {
        parked = compress();
        if (parked.ok()) {
          parked_st = zfp.Decompress(parked.value().data(),
                                     parked.value().size(), &from_parked);
        }
      });
      ASSERT_TRUE(parked.ok()) << parked.status().ToString();
      ASSERT_TRUE(pool_st.ok()) << pool_st.ToString();
      ASSERT_TRUE(parked_st.ok()) << parked_st.ToString();
      EXPECT_EQ(pooled.value(), parked.value());
      EXPECT_TRUE(from_pool.SameAs(from_parked));

      const std::vector<uint64_t> lengths = SegmentLengths(pooled.value());
      EXPECT_EQ(lengths.size(),
                std::clamp<size_t>(shape.blocks / 128, 1, 256));
      if (!fixed_rate) {
        double max_err = 0.0;
        for (size_t i = 0; i < data.size(); ++i) {
          max_err =
              std::max<double>(max_err, std::fabs(from_pool[i] - data[i]));
        }
        EXPECT_LE(max_err, tolerance);
      }
    }
  }
}

}  // namespace
}  // namespace fxrz
