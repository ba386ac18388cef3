// FPZIP-specific behaviors: the precision ladder, losslessness at full
// precision, ordered-integer mapping properties, the hardening of the
// segmented archive format, and the decode that chains each segment's
// reconstruction behind its entropy decode.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/compressors/fpzip.h"
#include "src/data/generators/grf.h"
#include "src/encoding/arith.h"
#include "src/encoding/bit_stream.h"
#include "src/data/statistics.h"
#include "src/util/random.h"
#include "tests/compressors/measured_ratio.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

TEST(FpzipTest, LosslessAtPrecision32) {
  Rng rng(911);
  Tensor t({11, 13, 7});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.NextGaussian() * 1e3);
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 32).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_TRUE(rec.SameAs(t)) << "precision 32 must be bit-exact";
}

TEST(FpzipTest, DistortionShrinksMonotonicallyWithPrecision) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 912);
  FpzipCompressor fpzip;
  double prev_rmse = 1e300;
  for (int p : {6, 10, 16, 24, 32}) {
    const std::vector<uint8_t> bytes = fpzip.Compress(g, p).value();
    Tensor rec;
    ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
    const double rmse = ComputeDistortion(g, rec).rmse;
    EXPECT_LE(rmse, prev_rmse) << "precision " << p;
    prev_rmse = rmse;
  }
  EXPECT_EQ(prev_rmse, 0.0);
}

TEST(FpzipTest, RatioShrinksMonotonicallyWithPrecision) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 913);
  FpzipCompressor fpzip;
  double prev_ratio = 1e300;
  for (int p : {6, 12, 20, 28}) {
    const double ratio = MeasuredRatio(fpzip, g, p);
    EXPECT_LT(ratio, prev_ratio) << "precision " << p;
    prev_ratio = ratio;
  }
}

TEST(FpzipTest, HandlesNegativeAndMixedSignData) {
  Tensor t({64});
  for (size_t i = 0; i < 64; ++i) {
    t[i] = static_cast<float>((i % 2 ? -1.0 : 1.0) * std::exp(0.1 * i));
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 32).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_TRUE(rec.SameAs(t));
}

TEST(FpzipTest, TruncationErrorIsValueRelative) {
  // At precision p the truncation changes values by a bounded *relative*
  // amount (the ordered-int space is exponent-aligned).
  Tensor t({1000});
  Rng rng(914);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::pow(10.0, rng.Uniform(-3, 3)));
  }
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 20).value();
  Tensor rec;
  ASSERT_TRUE(fpzip.Decompress(bytes.data(), bytes.size(), &rec).ok());
  for (size_t i = 0; i < t.size(); ++i) {
    const double rel = std::fabs(rec[i] - t[i]) / std::fabs(t[i]);
    EXPECT_LT(rel, 1e-2) << i;  // 20 of 32 ordered bits kept
  }
}

// A constant field is the densest stream the residual coder emits (~60
// elements per payload byte at 128^3); the decoder's element-count bound
// must still admit it.
TEST(FpzipTest, ConstantFieldAtDensestStreamRoundTrips) {
  Tensor t({128, 128, 128});
  for (size_t i = 0; i < t.size(); ++i) t[i] = 1.5f;
  FpzipCompressor fpzip;
  const std::vector<uint8_t> bytes = fpzip.Compress(t, 32).value();
  Tensor rec;
  const Status st = fpzip.Decompress(bytes.data(), bytes.size(), &rec);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(rec.SameAs(t));
}

// A header claiming more elements than the payload can encode is rejected
// as Corruption before the decoder allocates the output.
TEST(FpzipTest, HeaderClaimingMoreElementsThanPayloadIsRejected) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 916);
  FpzipCompressor fpzip;
  std::vector<uint8_t> bytes = fpzip.Compress(g, 12).value();
  // Header: magic (u32), rank (u32), then one little-endian u64 per dim.
  // Claim 4096 x 8 x 8 elements for a payload that encodes 8 x 8 x 8.
  const uint64_t claimed = 4096;
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<uint8_t>(claimed >> (8 * i));
  }
  Tensor rec;
  const Status st = fpzip.Decompress(bytes.data(), bytes.size(), &rec);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find("payload can encode"), std::string::npos)
      << st.ToString();
}

TEST(FpzipTest, RejectsPrecisionOutOfRange) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 915);
  FpzipCompressor fpzip;
  for (const double p : {2.0, 40.0, std::nan("")}) {
    const StatusOr<std::vector<uint8_t>> out = fpzip.Compress(g, p);
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument)
        << "precision " << p << ": " << out.status().ToString();
  }
  for (const double p : {4.0, 32.0}) {
    EXPECT_TRUE(fpzip.Compress(g, p).ok()) << "precision " << p;
  }
}

// Shapes whose residual streams split into several segments, cut at plane
// boundaries of every rank: each round-trips losslessly at precision 32
// and within the truncation error at precision 16 (7 mantissa bits).
TEST(FpzipTest, MultiSegmentShapesRoundTrip) {
  const std::vector<std::vector<size_t>> shapes = {
      {100003}, {300, 301}, {70, 33, 31}, {3, 40, 30, 30}};
  FpzipCompressor fpzip;
  for (const std::vector<size_t>& dims : shapes) {
    Rng rng(917);
    Tensor t(dims);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(std::sin(0.001 * static_cast<double>(i)) +
                                0.01 * rng.NextGaussian());
    }
    const std::vector<uint8_t> lossless = fpzip.Compress(t, 32).value();
    Tensor rec;
    ASSERT_TRUE(fpzip.Decompress(lossless.data(), lossless.size(), &rec).ok());
    EXPECT_TRUE(rec.SameAs(t)) << t.size() << " elements";
    const std::vector<uint8_t> lossy = fpzip.Compress(t, 16).value();
    ASSERT_TRUE(fpzip.Decompress(lossy.data(), lossy.size(), &rec).ok());
    for (size_t i = 0; i < t.size(); ++i) {
      ASSERT_LE(std::fabs(rec[i] - t[i]), 0.01 * std::fabs(t[i]))
          << t.size() << " elements, index " << i;
    }
  }
}

// ---------------------------------------------------------- archive format
//
// An FPZ2 archive is the shared codec header (magic, rank, one u64 per
// dim), the precision byte, a u32 segment count, then per segment a
// length-prefixed class stream and a length-prefixed raw stream.

// Byte offset of the segment count in a rank-`rank` archive.
size_t SegmentCountAt(size_t rank) { return 4 + 4 + 8 * rank + 1; }

void PutU32(std::vector<uint8_t>* bytes, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void PutU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// A 64 x 32 x 32 field: two segments.
std::vector<uint8_t> TwoSegmentArchive() {
  const Tensor g = GaussianRandomField3D(64, 32, 32, 3.0, 918);
  return FpzipCompressor().Compress(g, 12).value();
}

Status DecodeStatus(const std::vector<uint8_t>& bytes) {
  Tensor rec;
  return FpzipCompressor().Decompress(bytes.data(), bytes.size(), &rec);
}

void ExpectCorruption(const Status& st, const std::string& needle) {
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.ToString().find(needle), std::string::npos) << st.ToString();
}

TEST(FpzipFormatTest, SegmentCountFollowsTheShape) {
  const std::vector<uint8_t> bytes = TwoSegmentArchive();
  EXPECT_EQ(ReadUint32(bytes.data() + SegmentCountAt(3)), 2u);
  const Tensor small = GaussianRandomField3D(16, 16, 16, 3.0, 919);
  const std::vector<uint8_t> one =
      FpzipCompressor().Compress(small, 12).value();
  EXPECT_EQ(ReadUint32(one.data() + SegmentCountAt(3)), 1u);
}

TEST(FpzipFormatTest, SingleStreamArchiveIsNamed) {
  std::vector<uint8_t> bytes = TwoSegmentArchive();
  PutU32(&bytes, 0, 0x46505A31);  // "FPZ1"
  ExpectCorruption(DecodeStatus(bytes), "FPZ1");
}

TEST(FpzipFormatTest, SegmentCountOtherThanTheShapeImpliesIsRejected) {
  for (const uint32_t count : {0u, 1u, 3u, 64u, 0xFFFFFFFFu}) {
    std::vector<uint8_t> bytes = TwoSegmentArchive();
    PutU32(&bytes, SegmentCountAt(3), count);
    ExpectCorruption(DecodeStatus(bytes),
                     "segments where the shape implies 2");
  }
}

TEST(FpzipFormatTest, SegmentLengthOverrunningThePayloadIsRejected) {
  const std::vector<uint8_t> valid = TwoSegmentArchive();
  const size_t klass0 = SegmentCountAt(3) + 4;
  const size_t raw0 = klass0 + 8 + ReadUint64(valid.data() + klass0);
  for (const size_t at : {klass0, raw0}) {
    for (const uint64_t len : {uint64_t{valid.size()}, ~uint64_t{0}}) {
      std::vector<uint8_t> bytes = valid;
      PutU64(&bytes, at, len);
      ExpectCorruption(DecodeStatus(bytes), "segment 0 overruns the payload");
    }
  }
}

// Builds a rank-1 archive of `n` elements at precision `p` whose segments
// hold the given class and raw streams.
std::vector<uint8_t> Archive1D(
    uint64_t n, int p,
    const std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>>&
        segments) {
  std::vector<uint8_t> out;
  AppendUint32(&out, 0x46505A32);  // "FPZ2"
  AppendUint32(&out, 1);
  AppendUint64(&out, n);
  out.push_back(static_cast<uint8_t>(p));
  AppendUint32(&out, static_cast<uint32_t>(segments.size()));
  for (const auto& [klass, raw] : segments) {
    AppendUint64(&out, klass.size());
    out.insert(out.end(), klass.begin(), klass.end());
    AppendUint64(&out, raw.size());
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

// The element bound applies to each segment's own class stream: a payload
// large enough for the whole field is rejected when one segment's stream
// is too short for its elements.
TEST(FpzipFormatTest, ElementBoundAppliesPerSegment) {
  const std::vector<uint8_t> tiny(1, 0), large(4096, 0);
  const std::vector<uint8_t> bytes =
      Archive1D(65536, 12, {{tiny, {}}, {large, {}}});
  ExpectCorruption(DecodeStatus(bytes), "segment 0 element count exceeds");
}

// No valid stream holds a residual class above the precision (|r| < 2^p);
// a class stream that decodes one is rejected by name.
TEST(FpzipFormatTest, ResidualClassAbovePrecisionIsRejected) {
  constexpr int kPrecision = 4;
  ArithEncoder enc;
  BitContext klass[64];
  const uint32_t k = kPrecision + 1;
  uint32_t node = 1;
  for (int b = 5; b >= 0; --b) {
    const uint32_t bit = (k >> b) & 1u;
    enc.EncodeBit(&klass[node], bit);
    node = node * 2 + bit;
  }
  const std::vector<uint8_t> bytes =
      Archive1D(8, kPrecision, {{std::move(enc).Finish(), {}}});
  ExpectCorruption(DecodeStatus(bytes), "fpzip: bad residual class");
}

// ----------------------------------------------------------- chained decode

// Shapes of ranks 1 to 4 whose residual streams hold 1, 2, 8 and 64
// segments (one per 32768 elements, at most 64).
struct ChainShape {
  std::vector<size_t> dims;
  uint32_t segments;
};

const ChainShape kChainShapes[] = {
    {{1000}, 1},           {{30, 40}, 1},         {{10, 11, 12}, 1},
    {{2, 5, 6, 7}, 1},     {{65536}, 2},          {{256, 256}, 2},
    {{16, 64, 64}, 2},     {{2, 8, 64, 64}, 2},   {{262144}, 8},
    {{512, 512}, 8},       {{64, 64, 64}, 8},     {{4, 16, 64, 64}, 8},
    {{2097152}, 64},       {{2048, 1024}, 64},    {{128, 128, 128}, 64},
    {{2, 64, 128, 128}, 64},
};

Tensor ChainField(const std::vector<size_t>& dims) {
  Rng rng(920);
  Tensor t(dims);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.0003 * static_cast<double>(i)) +
                              0.01 * rng.NextGaussian());
  }
  return t;
}

// The chained decode on the free pool gives the floats of a decode with
// the workers parked, where each segment decodes and then reconstructs on
// the calling thread in order.
TEST(FpzipChainTest, PoolDecodeEqualsParkedDecode) {
  const FpzipCompressor fpzip;
  for (const ChainShape& shape : kChainShapes) {
    SCOPED_TRACE("rank " + std::to_string(shape.dims.size()) + ", " +
                 std::to_string(shape.segments) + " segments");
    const Tensor data = ChainField(shape.dims);
    const std::vector<uint8_t> bytes = fpzip.Compress(data, 16).value();
    ASSERT_EQ(ReadUint32(bytes.data() + SegmentCountAt(shape.dims.size())),
              shape.segments);
    Tensor pooled, parked;
    const Status pool_st =
        fpzip.Decompress(bytes.data(), bytes.size(), &pooled);
    Status parked_st = Status::Internal("not run");
    WithWorkersParked([&] {
      parked_st = fpzip.Decompress(bytes.data(), bytes.size(), &parked);
    });
    ASSERT_TRUE(pool_st.ok()) << pool_st.ToString();
    ASSERT_TRUE(parked_st.ok()) << parked_st.ToString();
    EXPECT_TRUE(pooled.SameAs(parked));
    for (size_t i = 0; i < data.size(); ++i) {
      ASSERT_LE(std::fabs(pooled[i] - data[i]), 0.01 * std::fabs(data[i]))
          << "index " << i;
    }
  }
}

// The last segment's raw stream is cut to nothing, so its decode fails
// after every segment before it has decoded and reconstructed into the
// decoder's own buffers: the caller's tensor is left as it was.
TEST(FpzipChainTest, CorruptLastSegmentLeavesOutputUntouched) {
  const Tensor data = GaussianRandomField3D(64, 64, 64, 3.0, 921);
  std::vector<uint8_t> bytes = FpzipCompressor().Compress(data, 16).value();
  ASSERT_EQ(ReadUint32(bytes.data() + SegmentCountAt(3)), 8u);
  size_t at = SegmentCountAt(3) + 4;
  for (int s = 0; s < 8; ++s) {
    at += 8 + ReadUint64(bytes.data() + at);  // class stream
    if (s == 7) break;
    at += 8 + ReadUint64(bytes.data() + at);  // raw stream
  }
  ASSERT_GT(ReadUint64(bytes.data() + at), 0u);
  bytes.resize(at + 8);
  PutU64(&bytes, at, 0);
  const Tensor sentinel({2, 2}, {1.5f, -2.0f, 0.0f, 9.0f});
  Tensor pooled = sentinel, parked = sentinel;
  ExpectCorruption(
      FpzipCompressor().Decompress(bytes.data(), bytes.size(), &pooled),
      "fpzip: bad residual stream");
  WithWorkersParked([&] {
    ExpectCorruption(
        FpzipCompressor().Decompress(bytes.data(), bytes.size(), &parked),
        "fpzip: bad residual stream");
  });
  EXPECT_TRUE(pooled.SameAs(sentinel));
  EXPECT_TRUE(parked.SameAs(sentinel));
}

}  // namespace
}  // namespace fxrz
