#include "src/encoding/zlite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/util/byte_reader.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

void RoundTrip(const std::vector<uint8_t>& input) {
  const std::vector<uint8_t> enc = ZliteCompress(input);
  std::vector<uint8_t> dec;
  const Status st = ZliteDecompress(enc.data(), enc.size(), &dec);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(input, dec);
}

TEST(ZliteTest, Empty) { RoundTrip({}); }

TEST(ZliteTest, SingleByte) { RoundTrip({0x42}); }

TEST(ZliteTest, ShortLiteralRun) { RoundTrip({1, 2, 3, 4, 5}); }

TEST(ZliteTest, AllZerosCompressWell) {
  const std::vector<uint8_t> zeros(100000, 0);
  const std::vector<uint8_t> enc = ZliteCompress(zeros);
  EXPECT_LT(enc.size(), zeros.size() / 50);
  RoundTrip(zeros);
}

TEST(ZliteTest, RepeatedPattern) {
  std::vector<uint8_t> input;
  const std::string pattern = "scientific-data-compression!";
  for (int i = 0; i < 500; ++i) {
    input.insert(input.end(), pattern.begin(), pattern.end());
  }
  const std::vector<uint8_t> enc = ZliteCompress(input);
  EXPECT_LT(enc.size(), input.size() / 4);
  RoundTrip(input);
}

TEST(ZliteTest, IncompressibleRandomData) {
  Rng rng(3);
  std::vector<uint8_t> input(50000);
  for (auto& b : input) b = static_cast<uint8_t>(rng.NextBelow(256));
  const std::vector<uint8_t> enc = ZliteCompress(input);
  // At most ~12.6% expansion (9 bits per literal) plus header.
  EXPECT_LT(enc.size(), input.size() * 9 / 8 + 64);
  RoundTrip(input);
}

TEST(ZliteTest, OverlappingMatches) {
  // "aaaa..." forces matches whose source overlaps the destination.
  std::vector<uint8_t> input(10000, 'a');
  input[0] = 'b';
  RoundTrip(input);
}

TEST(ZliteTest, MatchesAcrossWindowBoundary) {
  Rng rng(4);
  std::vector<uint8_t> input;
  std::vector<uint8_t> chunk(1000);
  for (auto& b : chunk) b = static_cast<uint8_t>(rng.NextBelow(8));
  for (int i = 0; i < 200; ++i) {  // total 200 KB > 64 KB window
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  RoundTrip(input);
}

TEST(ZliteTest, DecodeRejectsTruncation) {
  std::vector<uint8_t> input(1000, 'x');
  std::vector<uint8_t> enc = ZliteCompress(input);
  std::vector<uint8_t> dec;
  EXPECT_FALSE(ZliteDecompress(enc.data(), 10, &dec).ok());
  ASSERT_GT(enc.size(), 5u);
  enc.erase(enc.end() - 5, enc.end());
  EXPECT_FALSE(ZliteDecompress(enc.data(), enc.size(), &dec).ok());
}

TEST(ZliteTest, DecodeKeepsTheBytesBeforeAFailure) {
  // Two literals, then a match reaching back past the start of the output.
  std::vector<uint8_t> payload;
  {
    BitWriter bw;
    bw.WriteBits(uint64_t{'a'} << 1, 9);
    bw.WriteBits(uint64_t{'b'} << 1, 9);
    bw.WriteBits(1 | (uint64_t{4} << 1), 25);  // offset 5 > 2 bytes out
    payload = std::move(bw).Take();
  }
  std::vector<uint8_t> enc;
  AppendUint64(&enc, 100);
  AppendUint64(&enc, payload.size());
  enc.insert(enc.end(), payload.begin(), payload.end());
  std::vector<uint8_t> dec;
  const Status st = ZliteDecompress(enc.data(), enc.size(), &dec);
  EXPECT_EQ(st.ToString(), Status::Corruption("zlite: bad offset").ToString());
  EXPECT_EQ(dec, (std::vector<uint8_t>{'a', 'b'}));
}

// --- The parallel parse -----------------------------------------------------

constexpr size_t kWindow = size_t{1} << 16;
const size_t kRangeCounts[] = {1, 2, 3, 4, 7, 16, 64};

// Checks that every range count gives ZliteCompress's bytes, and returns
// the total number of re-parses.
size_t ExpectSameForEveryRangeCount(const std::vector<uint8_t>& input,
                                    const std::string& what) {
  const std::vector<uint8_t> serial = ZliteCompress(input);
  size_t reparses = 0;
  for (size_t k : kRangeCounts) {
    const zlite_internal::RangedCompression got =
        zlite_internal::CompressInRanges(input, k);
    EXPECT_EQ(got.bytes, serial) << what << ", " << k << " ranges";
    reparses += got.reparses;
  }
  std::vector<uint8_t> dec;
  EXPECT_TRUE(ZliteDecompress(serial.data(), serial.size(), &dec).ok());
  EXPECT_EQ(dec, input) << what;
  return reparses;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed, uint32_t alphabet) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(alphabet));
  return out;
}

// The first position of range r of k over n bytes (CompressInRanges'
// split).
size_t RangeStart(size_t n, size_t k, size_t r) {
  return n / k * r + std::min(r, n % k);
}

// The body of an sz archive (its sections, stored as they are): realistic
// entropy-coded bytes.
std::vector<uint8_t> SzBody(const Tensor& field, double rel_eb) {
  const std::vector<uint8_t> archive =
      MakeCompressor("sz")->Compress(field, rel_eb * ValueRange(field))
          .value();
  ByteReader reader(archive);
  std::vector<size_t> dims;
  EXPECT_TRUE(compressor_internal::ParseHeader(&reader, ReadUint32(
                                                   archive.data()),
                                               &dims)
                  .ok());
  return std::vector<uint8_t>(reader.cursor(),
                              reader.cursor() + reader.remaining());
}

TEST(ZliteRangesTest, SzBodiesMatchTheOneRangeParse) {
  const Tensor small = GaussianRandomField3D(32, 32, 32, 3.0, 5);
  const Tensor large = GaussianRandomField3D(64, 64, 64, 3.0, 6);
  for (double rel_eb : {1e-5, 1e-3, 1e-2, 1e-1}) {
    ExpectSameForEveryRangeCount(SzBody(small, rel_eb), "sz body 32^3");
    ExpectSameForEveryRangeCount(SzBody(large, rel_eb), "sz body 64^3");
  }
}

TEST(ZliteRangesTest, AllZerosMatchTheOneRangeParse) {
  ExpectSameForEveryRangeCount(std::vector<uint8_t>(300000, 0), "zeros");
}

TEST(ZliteRangesTest, ZeroRunsAcrossEveryRangeBoundary) {
  // Runs of 259 * m - 1, 259 * m and 259 * m + 1 zeros (259 is the longest
  // match) centred on each boundary of each range count, in random bytes.
  const size_t n = 400000;
  for (size_t k : kRangeCounts) {
    for (size_t m = 1; m <= 3; ++m) {
      for (size_t len : {259 * m - 1, 259 * m, 259 * m + 1}) {
        std::vector<uint8_t> input = RandomBytes(n, 7 + k + m, 256);
        for (size_t r = 1; r < k; ++r) {
          const size_t at = RangeStart(n, k, r) - len / 2;
          std::fill(input.begin() + static_cast<long>(at),
                    input.begin() + static_cast<long>(at + len), 0);
        }
        const std::vector<uint8_t> serial = ZliteCompress(input);
        const zlite_internal::RangedCompression got =
            zlite_internal::CompressInRanges(input, k);
        EXPECT_EQ(got.bytes, serial) << k << " ranges, run " << len;
      }
    }
  }
}

TEST(ZliteRangesTest, PeriodicPatternsMatchTheOneRangeParse) {
  for (size_t period : {259, 260, 261}) {
    const std::vector<uint8_t> unit = RandomBytes(period, period, 256);
    std::vector<uint8_t> input;
    while (input.size() < 300000) {
      input.insert(input.end(), unit.begin(), unit.end());
    }
    ExpectSameForEveryRangeCount(input, "period " + std::to_string(period));
  }
}

TEST(ZliteRangesTest, RandomBytesMatchTheOneRangeParse) {
  ExpectSameForEveryRangeCount(RandomBytes(300000, 8, 256), "random");
  ExpectSameForEveryRangeCount(RandomBytes(300000, 9, 4), "4 symbols");
}

TEST(ZliteRangesTest, SizesAroundTheMinimumRangeAndTheMinimumMatch) {
  for (size_t n : {2 * kWindow - 1, 2 * kWindow, 2 * kWindow + 1,
                   4 * kWindow - 1, 4 * kWindow + 1}) {
    ExpectSameForEveryRangeCount(RandomBytes(n, n, 16), "random 16");
    ExpectSameForEveryRangeCount(std::vector<uint8_t>(n, 3), "constant");
  }
  for (size_t n = 0; n <= 5; ++n) {
    ExpectSameForEveryRangeCount(RandomBytes(n, n, 2), "tiny");
    ExpectSameForEveryRangeCount(std::vector<uint8_t>(n, 0), "tiny zeros");
  }
}

TEST(ZliteRangesTest, AnOutOfPhaseZeroRunTakesTheReparse) {
  // A zero run of 2 * kWindow around the boundary of two ranges. Range 0
  // enters the run with a literal and then matches 259 bytes at a time
  // from the run's second byte; range 1 matches 259 bytes at a time from
  // its own first byte, out of phase with range 0. So range 0's exit,
  // range 1's true entry, is none of range 1's parse positions, and range
  // 1 must parse again from it.
  const size_t n = 8 * kWindow;
  std::vector<uint8_t> input = RandomBytes(n, 10, 256);
  const size_t boundary = RangeStart(n, 2, 1);
  size_t run_start = boundary - kWindow;
  if ((boundary - run_start - 1) % 259 == 0) ++run_start;
  std::fill(input.begin() + static_cast<long>(run_start),
            input.begin() + static_cast<long>(boundary + kWindow), 0);
  const zlite_internal::RangedCompression got =
      zlite_internal::CompressInRanges(input, 2);
  EXPECT_EQ(got.reparses, 1u);
  EXPECT_EQ(got.bytes, zlite_internal::CompressInRanges(input, 1).bytes);
  EXPECT_EQ(got.bytes, ZliteCompress(input));
  EXPECT_GE(ExpectSameForEveryRangeCount(input, "zero run"), 1u);
}

}  // namespace
}  // namespace fxrz
