#include "src/compressors/chunked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/encoding/bit_stream.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/fault_injection.h"
#include "tests/compressors/chunk_count.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

TEST(ChunkedTest, RoundTripMatchesShapeAndBound) {
  const Tensor g = GaussianRandomField3D(32, 16, 16, 3.0, 971);
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/2048);
  const double eb = 0.01;
  const std::vector<uint8_t> bytes = comp.Compress(g, eb).value();
  EXPECT_GT(ChunkCount(bytes, g.rank()), 1u);

  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
  ASSERT_EQ(rec.dims(), g.dims());
  EXPECT_LE(ComputeDistortion(g, rec).max_abs_error, eb * 1.0001);
}

TEST(ChunkedTest, SingleChunkWhenDataSmall) {
  const Tensor g = GaussianRandomField3D(8, 8, 8, 3.0, 972);
  ChunkedCompressor comp(MakeCompressor("zfp"));
  const std::vector<uint8_t> bytes = comp.Compress(g, 0.01).value();
  EXPECT_EQ(ChunkCount(bytes, g.rank()), 1u);
  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
}

TEST(ChunkedTest, FailedSlabFailsTheArchiveWithItsStatus) {
  if (!fault::Enabled()) GTEST_SKIP() << "built without FXRZ_FAULT_INJECT";
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 7);
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/1024);
  // With the workers parked the slabs compress in order: the chunked
  // entry, slab 0, slab 1 -- fail slab 1.
  fault::ResetAll();
  fault::Arm(fault::Site::kCompressorCompress, /*skip=*/2, /*count=*/1);
  StatusOr<std::vector<uint8_t>> archive = Status::Internal("not run");
  WithWorkersParked([&] { archive = comp.Compress(g, 0.01); });
  const uint64_t triggered =
      fault::TriggeredCount(fault::Site::kCompressorCompress);
  fault::ResetAll();
  EXPECT_EQ(triggered, 1u);
  ASSERT_FALSE(archive.ok());
  EXPECT_EQ(archive.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(archive.status().message().find("sz Compress"), std::string::npos)
      << archive.status().message();
}

TEST(ChunkedTest, UnevenRowSplit) {
  // 10 rows with 4-row chunks: 4 + 4 + 2.
  Tensor t({10, 6});
  for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i % 13);
  ChunkedCompressor comp(MakeCompressor("mgard"), /*target_chunk_elems=*/24);
  const std::vector<uint8_t> bytes = comp.Compress(t, 0.01).value();
  EXPECT_EQ(ChunkCount(bytes, t.rank()), 3u);
  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, 0.0101);
}

TEST(ChunkedTest, VerifyUtilityAgrees) {
  const Tensor g = GaussianRandomField3D(16, 16, 16, 3.0, 975);
  ChunkedCompressor comp(MakeCompressor("sz"), 1024);
  const std::vector<uint8_t> bytes = comp.Compress(g, 0.02).value();
  EXPECT_GT(g.size_bytes(), bytes.size());
  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
  ASSERT_EQ(rec.dims(), g.dims());
  EXPECT_LE(ComputeDistortion(g, rec).max_abs_error, 0.02 * 1.0001);
}

TEST(ChunkedTest, ParallelArchiveByteIdenticalToSerial) {
  const Tensor g = GaussianRandomField3D(32, 16, 16, 3.0, 977);
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/1280);
  std::vector<uint8_t> a;
  Tensor ra;
  Status serial_decode = Status::Internal("not run");
  WithWorkersParked([&] {
    a = comp.Compress(g, 0.01).value();
    serial_decode = comp.Decompress(a.data(), a.size(), &ra);
  });
  const std::vector<uint8_t> b = comp.Compress(g, 0.01).value();
  EXPECT_EQ(a, b);

  Tensor rb;
  ASSERT_TRUE(serial_decode.ok());
  ASSERT_TRUE(comp.Decompress(a.data(), a.size(), &rb).ok());
  ASSERT_EQ(ra.dims(), rb.dims());
  for (size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i], rb[i]) << i;
  }
}

TEST(ChunkedTest, ParallelDecompressManyChunks) {
  // One row per chunk: plenty of independent slabs for the parallel path.
  Tensor t({33, 5, 3});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>((i * 7) % 23) * 0.25f;
  }
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/1);
  const std::vector<uint8_t> bytes = comp.Compress(t, 0.001).value();
  EXPECT_EQ(ChunkCount(bytes, t.rank()), 33u);
  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
  ASSERT_EQ(rec.dims(), t.dims());
  EXPECT_LE(ComputeDistortion(t, rec).max_abs_error, 0.0011);
}

TEST(ChunkedTest, CorruptStreamsRejected) {
  const Tensor g = GaussianRandomField3D(16, 8, 8, 3.0, 976);
  ChunkedCompressor comp(MakeCompressor("sz"), 512);
  std::vector<uint8_t> bytes = comp.Compress(g, 0.01).value();
  Tensor rec;
  EXPECT_FALSE(comp.Decompress(bytes.data(), bytes.size() / 2, &rec).ok());
  bytes[1] ^= 0xFF;
  EXPECT_FALSE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
}

TEST(ChunkedTest, VerifyIntegrityCatchesEveryFlippedByte) {
  // Index bytes are covered by the index checksum, payload bytes by their
  // chunk's checksum: no byte of a version-2 archive is unprotected.
  const Tensor g = GaussianRandomField3D(16, 8, 8, 3.0, 978);
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/512);
  const std::vector<uint8_t> bytes = comp.Compress(g, 0.01).value();
  ASSERT_TRUE(comp.VerifyIntegrity(bytes.data(), bytes.size()).ok());
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x01;
    ASSERT_FALSE(comp.VerifyIntegrity(corrupt.data(), corrupt.size()).ok())
        << "flipped byte " << pos << " of " << bytes.size()
        << " went undetected";
  }
}

TEST(ChunkedTest, StrictDecodeRejectsPayloadCorruptionAtEveryStride) {
  const Tensor g = GaussianRandomField3D(16, 8, 8, 3.0, 979);
  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/512);
  const std::vector<uint8_t> bytes = comp.Compress(g, 0.01).value();
  Tensor rec;
  ASSERT_TRUE(comp.Decompress(bytes.data(), bytes.size(), &rec).ok());
  for (size_t pos = 0; pos < bytes.size(); pos += 64) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[pos] ^= 0x80;
    ASSERT_FALSE(comp.Decompress(corrupt.data(), corrupt.size(), &rec).ok())
        << "flipped byte " << pos;
  }
}

// Builds an archive in the unchecksummed "CHK1" layout that preceded
// "CHK2": inline `u64 size | payload` per chunk, no CRCs.
std::vector<uint8_t> BuildV1Archive(const Compressor& base, const Tensor& data,
                                    size_t rows_per_chunk, double config) {
  std::vector<uint8_t> out;
  AppendUint32(&out, 0x43484B31);  // "CHK1"
  AppendUint32(&out, static_cast<uint32_t>(data.rank()));
  for (size_t d = 0; d < data.rank(); ++d) AppendUint64(&out, data.dim(d));
  const size_t row_elems = data.size() / data.dim(0);
  const size_t chunks =
      (data.dim(0) + rows_per_chunk - 1) / rows_per_chunk;
  AppendUint32(&out, static_cast<uint32_t>(chunks));
  for (size_t c = 0; c < chunks; ++c) {
    const size_t row_lo = c * rows_per_chunk;
    const size_t rows = std::min(rows_per_chunk, data.dim(0) - row_lo);
    std::vector<size_t> dims = data.dims();
    dims[0] = rows;
    Tensor slab = Tensor::ForOverwrite(std::move(dims));
    std::copy(data.data() + row_lo * row_elems,
              data.data() + (row_lo + rows) * row_elems, slab.data());
    const std::vector<uint8_t> payload = base.Compress(slab, config).value();
    AppendUint64(&out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

TEST(ChunkedTest, VersionOneArchivesAreBadMagic) {
  const Tensor g = GaussianRandomField3D(16, 8, 8, 3.0, 983);
  const auto sz = MakeCompressor("sz");
  const std::vector<uint8_t> v1 = BuildV1Archive(*sz, g, 4, 0.01);

  ChunkedCompressor comp(MakeCompressor("sz"), /*target_chunk_elems=*/256);
  Tensor rec;
  const Status statuses[] = {comp.Decompress(v1.data(), v1.size(), &rec),
                             comp.VerifyIntegrity(v1.data(), v1.size())};
  for (const Status& st : statuses) {
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_EQ(st.message(), "chunked: bad magic");
  }
}

}  // namespace
}  // namespace fxrz
