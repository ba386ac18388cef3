#include "src/encoding/arith.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/util/random.h"

namespace fxrz {
namespace {

TEST(ArithTest, SingleBitRoundTrip) {
  for (uint32_t bit : {0u, 1u}) {
    ArithEncoder enc;
    BitContext ectx;
    enc.EncodeBit(&ectx, bit);
    const std::vector<uint8_t> bytes = std::move(enc).Finish();
    ArithDecoder dec(bytes.data(), bytes.size());
    BitContext dctx;
    EXPECT_EQ(dec.DecodeBit(&dctx), bit);
  }
}

TEST(ArithTest, AlternatingBits) {
  ArithEncoder enc;
  BitContext ectx;
  for (int i = 0; i < 1000; ++i) enc.EncodeBit(&ectx, i & 1);
  const std::vector<uint8_t> bytes = std::move(enc).Finish();
  ArithDecoder dec(bytes.data(), bytes.size());
  BitContext dctx;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(dec.DecodeBit(&dctx), static_cast<uint32_t>(i & 1)) << i;
  }
}

TEST(ArithTest, SkewedBitsCompressBelowOneBitPerSymbol) {
  Rng rng(11);
  std::vector<uint32_t> bits(100000);
  for (auto& b : bits) b = rng.NextDouble() < 0.02 ? 1 : 0;

  ArithEncoder enc;
  BitContext ectx;
  for (uint32_t b : bits) enc.EncodeBit(&ectx, b);
  const std::vector<uint8_t> bytes = std::move(enc).Finish();
  // Entropy of p=0.02 is ~0.14 bits; adaptive coder should get below 0.25.
  EXPECT_LT(bytes.size() * 8, bits.size() / 4);

  ArithDecoder dec(bytes.data(), bytes.size());
  BitContext dctx;
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(dec.DecodeBit(&dctx), bits[i]) << i;
  }
  EXPECT_FALSE(dec.overrun());
}

// Four adaptive contexts interleaved bit by bit, each with its own skew.
TEST(ArithTest, InterleavedContextsRoundTrip) {
  Rng rng(13);
  std::vector<uint32_t> bits(40000);
  for (size_t i = 0; i < bits.size(); ++i) {
    const double p_one = 0.05 + 0.3 * static_cast<double>(i % 4);
    bits[i] = rng.NextDouble() < p_one ? 1 : 0;
  }

  ArithEncoder enc;
  std::vector<BitContext> ctxs(4);
  for (size_t i = 0; i < bits.size(); ++i) enc.EncodeBit(&ctxs[i % 4], bits[i]);
  const std::vector<uint8_t> bytes = std::move(enc).Finish();

  ArithDecoder dec(bytes.data(), bytes.size());
  std::vector<BitContext> dctxs(4);
  for (size_t i = 0; i < bits.size(); ++i) {
    ASSERT_EQ(dec.DecodeBit(&dctxs[i % 4]), bits[i]) << i;
  }
  EXPECT_FALSE(dec.overrun());
}

TEST(ArithTest, DecoderReportsOverrunOnTruncatedStream) {
  ArithEncoder enc;
  BitContext ectx;
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) {
    enc.EncodeBit(&ectx, static_cast<uint32_t>(rng.NextBelow(2)));
  }
  std::vector<uint8_t> bytes = std::move(enc).Finish();
  bytes.resize(bytes.size() / 4);
  ArithDecoder dec(bytes.data(), bytes.size());
  BitContext dctx;
  for (int i = 0; i < 10000; ++i) dec.DecodeBit(&dctx);
  EXPECT_TRUE(dec.overrun());
}

}  // namespace
}  // namespace fxrz
