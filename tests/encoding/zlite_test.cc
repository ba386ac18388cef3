#include "src/encoding/zlite.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

}  // namespace
}  // namespace fxrz
