#include "src/encoding/huffman.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/encoding/bit_stream.h"
#include "src/util/random.h"
#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

void RoundTrip(const std::vector<uint32_t>& symbols) {
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  std::vector<uint32_t> dec;
  const Status st = HuffmanDecode(enc.data(), enc.size(), &dec);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(symbols, dec);
}

TEST(HuffmanTest, EmptyInput) { RoundTrip({}); }

TEST(HuffmanTest, SingleSymbol) { RoundTrip({42}); }

TEST(HuffmanTest, SingleDistinctSymbolRepeated) {
  RoundTrip(std::vector<uint32_t>(1000, 7));
}

TEST(HuffmanTest, TwoSymbols) { RoundTrip({1, 2, 1, 1, 2, 1}); }

TEST(HuffmanTest, SkewedDistributionCompresses) {
  // 95% zeros should compress far below 4 bytes/symbol.
  Rng rng(1);
  std::vector<uint32_t> symbols(20000);
  for (auto& s : symbols) {
    s = rng.NextDouble() < 0.95 ? 0 : static_cast<uint32_t>(rng.NextBelow(16));
  }
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  EXPECT_LT(enc.size(), symbols.size());  // < 1 byte/symbol
  RoundTrip(symbols);
}

TEST(HuffmanTest, UniformRandomSymbols) {
  Rng rng(2);
  std::vector<uint32_t> symbols(5000);
  for (auto& s : symbols) s = static_cast<uint32_t>(rng.NextBelow(1024));
  RoundTrip(symbols);
}

TEST(HuffmanTest, LargeSymbolValues) {
  RoundTrip({0xFFFFFFFFu, 0, 0xFFFFFFFFu, 123456789u, 0xFFFFFFFFu});
}

TEST(HuffmanTest, ExponentialFrequencies) {
  // Deep Huffman tree; exercises the code-length cap path.
  std::vector<uint32_t> symbols;
  uint64_t count = 1;
  for (uint32_t sym = 0; sym < 18; ++sym) {
    for (uint64_t i = 0; i < count; ++i) symbols.push_back(sym);
    count *= 2;
  }
  RoundTrip(symbols);
}

TEST(HuffmanTest, DecodeRejectsTruncatedStream) {
  std::vector<uint32_t> symbols(100, 3);
  symbols[50] = 9;
  std::vector<uint8_t> enc = HuffmanEncode(symbols);
  std::vector<uint32_t> dec(7, 1);
  EXPECT_FALSE(HuffmanDecode(enc.data(), 5, &dec).ok());
  EXPECT_TRUE(dec.empty());
  enc.resize(enc.size() / 2);
  dec.assign(7, 1);
  EXPECT_FALSE(HuffmanDecode(enc.data(), enc.size(), &dec).ok());
  EXPECT_TRUE(dec.empty());  // not the decoded prefix
}

TEST(HuffmanTest, DecodeRejectsInvalidCodeAndLeavesOutputEmpty) {
  // Symbol 0 has code 0 and symbol 1 code 10, so 11 is no codeword: eight
  // zero bits decode, then the payload's ones meet the invalid code.
  std::vector<uint8_t> enc;
  AppendUint64(&enc, 10);  // num_symbols
  AppendUint32(&enc, 2);   // num_entries
  AppendUint32(&enc, 0);
  enc.push_back(1);
  AppendUint32(&enc, 1);
  enc.push_back(2);
  AppendUint64(&enc, 2);  // payload size
  enc.push_back(0x00);
  enc.push_back(0xFF);
  std::vector<uint32_t> dec;
  Status st = HuffmanDecode(enc.data(), enc.size(), &dec);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_TRUE(dec.empty());
  OverwriteVector<uint32_t> codes(3);
  st = HuffmanDecode(enc.data(), enc.size(), &codes);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_TRUE(codes.empty());
}

TEST(HuffmanTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage(64, 0xAB);
  std::vector<uint32_t> dec;
  EXPECT_FALSE(HuffmanDecode(garbage.data(), garbage.size(), &dec).ok());
}

// Decodes with both the table-driven decoder and the bit-at-a-time
// reference and checks they agree with each other and the input.
void RoundTripDifferential(const std::vector<uint32_t>& symbols) {
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  std::vector<uint32_t> fast, ref;
  ASSERT_TRUE(HuffmanDecode(enc.data(), enc.size(), &fast).ok());
  ASSERT_TRUE(huffman_internal::DecodeReference(enc.data(), enc.size(), &ref)
                  .ok());
  EXPECT_EQ(symbols, fast);
  EXPECT_EQ(fast, ref);
}

TEST(HuffmanTest, LongCodesBeyondTableBits) {
  // A large alphabet with geometric frequencies pushes the rare symbols'
  // code lengths well past the 11-bit lookup table, forcing the canonical
  // range fallback on decode.
  Rng rng(7);
  std::vector<uint32_t> symbols;
  for (uint32_t sym = 0; sym < 5000; ++sym) {
    const size_t copies = 1 + static_cast<size_t>(rng.NextBelow(1 + sym / 16));
    for (size_t i = 0; i < copies; ++i) symbols.push_back(sym);
  }
  // Shuffle so runs don't mask decoding errors.
  for (size_t i = symbols.size(); i-- > 1;) {
    std::swap(symbols[i], symbols[rng.NextBelow(i + 1)]);
  }
  RoundTripDifferential(symbols);
}

TEST(HuffmanTest, DominantSymbolRunFastPath) {
  // Long runs of the most frequent symbol between rare symbols.
  Rng rng(8);
  std::vector<uint32_t> symbols;
  for (int seg = 0; seg < 200; ++seg) {
    const size_t run = rng.NextBelow(40);
    for (size_t i = 0; i < run; ++i) symbols.push_back(32768);
    symbols.push_back(static_cast<uint32_t>(rng.NextBelow(300)));
  }
  RoundTripDifferential(symbols);
}

TEST(HuffmanTest, TableDecoderMatchesReferenceOnRandomStreams) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 977);
    std::vector<uint32_t> symbols(4096);
    const uint32_t alphabet = 1u << (2 + seed);
    for (auto& s : symbols) {
      s = rng.NextDouble() < 0.6 ? 0u
                                 : static_cast<uint32_t>(
                                       rng.NextBelow(alphabet));
    }
    RoundTripDifferential(symbols);
  }
}

TEST(HuffmanTest, DecodeRejectsOversubscribedTable) {
  // Hand-built header whose three one-bit codes violate the Kraft
  // inequality; a conforming decoder must refuse to build the table.
  std::vector<uint8_t> enc;
  AppendUint64(&enc, 10);  // num_symbols
  AppendUint32(&enc, 3);   // num_entries
  for (uint32_t sym = 0; sym < 3; ++sym) {
    AppendUint32(&enc, sym);
    enc.push_back(1);  // all length 1: Kraft sum 3/2 > 1
  }
  AppendUint64(&enc, 8);  // payload size
  enc.insert(enc.end(), 8, 0xFF);
  std::vector<uint32_t> dec;
  const Status st = HuffmanDecode(enc.data(), enc.size(), &dec);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(
      huffman_internal::DecodeReference(enc.data(), enc.size(), &dec).ok());
}


// ------------------------------------------------------ multi-range decode

// Stream layout: u64 symbol count, u32 entry count, 5 bytes per entry,
// u64 payload length, payload.
size_t PayloadAt(const std::vector<uint8_t>& enc) {
  return 8 + 4 + 5 * static_cast<size_t>(ReadUint32(enc.data() + 8)) + 8;
}

void SetU64(std::vector<uint8_t>* enc, size_t pos, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    (*enc)[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Resizes the payload to `bytes` (new bytes are zero) and rewrites its
// length to match.
std::vector<uint8_t> WithPayloadBytes(std::vector<uint8_t> enc, size_t bytes) {
  const size_t at = PayloadAt(enc);
  enc.resize(at + bytes, 0);
  SetU64(&enc, at - 8, bytes);
  return enc;
}

// The bit where each range of the stream's multi-range decode starts.
std::vector<size_t> RangeStarts(const std::vector<uint8_t>& enc) {
  const size_t ranges =
      huffman_internal::DecodeRangeCount(enc.data(), enc.size());
  const size_t bits = (enc.size() - PayloadAt(enc)) * 8;
  std::vector<size_t> starts;
  for (size_t k = 0; k < ranges; ++k) starts.push_back(k * (bits / ranges));
  return starts;
}

// A valid stream decodes in any number of ranges, the default included,
// without falling back to the one-range decode.
void ExpectRangesNeverFallBack(const std::vector<uint32_t>& symbols) {
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  const size_t ranges =
      huffman_internal::DecodeRangeCount(enc.data(), enc.size());
  for (const size_t k : {ranges, size_t{2}, size_t{3}, size_t{17},
                         size_t{64}, size_t{257}}) {
    std::vector<uint32_t> dec;
    const Status st =
        huffman_internal::DecodeInRanges(enc.data(), enc.size(), k, &dec);
    ASSERT_TRUE(st.ok()) << k << " ranges: " << st.ToString();
    EXPECT_EQ(dec, symbols) << k << " ranges";
  }
}

// HuffmanDecode must return what the one-range decode returns, Status
// (code and message) and symbols, with the pool free and with every
// worker parked.
void ExpectSameAsOneRange(const std::vector<uint8_t>& enc,
                          const std::string& what) {
  std::vector<uint32_t> one, free_pool, parked;
  const Status want =
      huffman_internal::DecodeInRanges(enc.data(), enc.size(), 1, &one);
  const Status got_free = HuffmanDecode(enc.data(), enc.size(), &free_pool);
  Status got_parked;
  WithWorkersParked([&] {
    got_parked = HuffmanDecode(enc.data(), enc.size(), &parked);
  });
  EXPECT_EQ(got_free.ToString(), want.ToString()) << what;
  EXPECT_EQ(got_parked.ToString(), want.ToString()) << what << " (parked)";
  if (want.ok()) {
    EXPECT_EQ(free_pool, one) << what;
    EXPECT_EQ(parked, one) << what << " (parked)";
  } else {
    // A failed decode hands out no symbols, not even a decoded prefix.
    EXPECT_TRUE(one.empty()) << what;
    EXPECT_TRUE(free_pool.empty()) << what;
    EXPECT_TRUE(parked.empty()) << what << " (parked)";
  }
}

// Quantization-code-like symbols: a dominant zero bin, a spread of small
// codes, a few wide ones.
std::vector<uint32_t> CodeLikeSymbols(size_t n, uint64_t seed, double dominant,
                                      uint32_t spread) {
  Rng rng(seed);
  std::vector<uint32_t> symbols(n);
  for (auto& s : symbols) {
    const double r = rng.NextDouble();
    if (r < dominant) {
      s = 32768;
    } else if (r < 0.999) {
      s = 32768 + static_cast<uint32_t>(rng.NextBelow(spread)) - spread / 2;
    } else {
      s = static_cast<uint32_t>(rng.NextBelow(65536));
    }
  }
  return symbols;
}

TEST(HuffmanMultiRangeTest, ParallelThresholdIsSixteenKibPayload) {
  // 256 equally frequent symbols all get 8-bit codes, so the payload is
  // exactly one byte per symbol.
  for (const size_t n : {size_t{16383}, size_t{16384}, size_t{24577}}) {
    std::vector<uint32_t> symbols(n);
    for (size_t i = 0; i < n; ++i) symbols[i] = static_cast<uint32_t>(i % 256);
    const std::vector<uint8_t> enc = HuffmanEncode(symbols);
    ASSERT_EQ(enc.size() - PayloadAt(enc), n);
    EXPECT_EQ(huffman_internal::DecodeRangeCount(enc.data(), enc.size()),
              n < 16384 ? 1u : n / 8192);
    RoundTripDifferential(symbols);
  }
}

TEST(HuffmanMultiRangeTest, RandomAlphabetsOnBothSidesOfThreshold) {
  bool one_range = false, many_ranges = false;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 7919);
    const size_t n = 4096 + rng.NextBelow(size_t{1} << 18);
    const uint32_t alphabet = 2 + static_cast<uint32_t>(rng.NextBelow(4000));
    const double dominant = rng.NextDouble();
    std::vector<uint32_t> symbols(n);
    for (auto& s : symbols) {
      s = rng.NextDouble() < dominant
              ? 7u
              : static_cast<uint32_t>(rng.NextBelow(alphabet));
    }
    const std::vector<uint8_t> enc = HuffmanEncode(symbols);
    const size_t ranges =
        huffman_internal::DecodeRangeCount(enc.data(), enc.size());
    one_range |= ranges == 1;
    many_ranges |= ranges > 1;
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                 std::to_string(ranges) + " ranges");
    RoundTripDifferential(symbols);
    ExpectRangesNeverFallBack(symbols);
  }
  EXPECT_TRUE(one_range);
  EXPECT_TRUE(many_ranges);
}

TEST(HuffmanMultiRangeTest, RangeStartsLandMidCodeword) {
  // 1024 equally frequent symbols: every code is 10 bits long, so a range
  // start that is not a multiple of 10 splits a codeword.
  std::vector<uint32_t> symbols(200003);
  Rng rng(31);
  for (auto& s : symbols) s = static_cast<uint32_t>(rng.NextBelow(1024));
  for (uint32_t k = 0; k < 1024; ++k) symbols[k] = k;
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  const std::vector<size_t> starts = RangeStarts(enc);
  ASSERT_GE(starts.size(), 2u);
  size_t mid_codeword = 0;
  for (size_t start : starts) mid_codeword += start % 10 != 0 ? 1 : 0;
  EXPECT_GT(mid_codeword, starts.size() / 2);
  RoundTripDifferential(symbols);
  ExpectRangesNeverFallBack(symbols);
}

TEST(HuffmanMultiRangeTest, FixedLengthCodesNeverResynchronize) {
  // 16 equally frequent symbols: every code is 4 bits, so a decode started
  // off a multiple of 4 never meets a true boundary, and the range is
  // decoded again from its true entry.
  std::vector<uint32_t> symbols(150001);
  Rng rng(37);
  for (auto& s : symbols) s = static_cast<uint32_t>(rng.NextBelow(16));
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  ASSERT_EQ(enc.size() - PayloadAt(enc), (4 * symbols.size() + 7) / 8);
  const std::vector<size_t> starts = RangeStarts(enc);
  ASSERT_GE(starts.size(), 2u);
  size_t misaligned = 0;
  for (size_t start : starts) misaligned += start % 4 != 0 ? 1 : 0;
  EXPECT_GT(misaligned, 0u);
  RoundTripDifferential(symbols);
  ExpectRangesNeverFallBack(symbols);
}

TEST(HuffmanMultiRangeTest, LongCodesBeyondTableBits) {
  // Geometric frequencies over a wide alphabet give codes up to ~20 bits.
  Rng rng(41);
  std::vector<uint32_t> symbols;
  while (symbols.size() < 150000) {
    uint32_t sym = 0;
    while (rng.NextBelow(4) != 0 && sym < 5000) ++sym;
    symbols.push_back(sym * 13);
  }
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  ASSERT_GE(huffman_internal::DecodeRangeCount(enc.data(), enc.size()), 2u);
  const uint32_t entries = ReadUint32(enc.data() + 8);
  uint8_t longest = 0;
  for (uint32_t i = 0; i < entries; ++i) {
    longest = std::max(longest, enc[12 + 5 * i + 4]);
  }
  EXPECT_GT(longest, 11);
  RoundTripDifferential(symbols);
  ExpectRangesNeverFallBack(symbols);
}

TEST(HuffmanMultiRangeTest, DominantRunsWithPaddingOnlyLastRange) {
  // Mostly the one-bit dominant code, in long runs.
  std::vector<uint32_t> symbols = CodeLikeSymbols(400003, 51, 0.97, 8);
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  const size_t payload = enc.size() - PayloadAt(enc);
  ASSERT_GE(huffman_internal::DecodeRangeCount(enc.data(), enc.size()), 2u);
  RoundTripDifferential(symbols);
  ExpectRangesNeverFallBack(symbols);

  // Doubling the payload with zero bytes puts every range from the middle
  // on, the last one included, in padding, which decodes as dominant
  // codes past the declared symbol count. A decode stops at that count.
  const std::vector<uint8_t> padded = WithPayloadBytes(enc, 2 * payload);
  const std::vector<size_t> starts = RangeStarts(padded);
  ASSERT_GE(starts.size(), 2u);
  EXPECT_GE(starts.back(), payload * 8);
  ExpectSameAsOneRange(padded, "padded payload");
  std::vector<uint32_t> dec;
  ASSERT_TRUE(HuffmanDecode(padded.data(), padded.size(), &dec).ok());
  EXPECT_EQ(dec, symbols);

  // A stream holding every symbol in one run of the one-bit code: its
  // payload is all zero bits, the last five of them padding.
  const std::vector<uint32_t> run(300003, 32768);
  ExpectSameAsOneRange(HuffmanEncode(run), "one run");
  ExpectRangesNeverFallBack(run);
}

TEST(HuffmanMultiRangeTest, DeclaredCountBelowEncodedCount) {
  const std::vector<uint32_t> symbols = CodeLikeSymbols(300000, 61, 0.7, 64);
  std::vector<uint8_t> enc = HuffmanEncode(symbols);
  for (const uint64_t declared : {uint64_t{1}, uint64_t{150000},
                                  uint64_t{299999}}) {
    SetU64(&enc, 0, declared);
    ExpectSameAsOneRange(enc, "declared " + std::to_string(declared));
    std::vector<uint32_t> dec;
    ASSERT_TRUE(HuffmanDecode(enc.data(), enc.size(), &dec).ok());
    EXPECT_EQ(dec, std::vector<uint32_t>(symbols.begin(),
                                         symbols.begin() + declared));
  }
}

TEST(HuffmanMultiRangeTest, TruncationAtEveryRangeBoundary) {
  const std::vector<uint32_t> symbols = CodeLikeSymbols(120000, 71, 0.3, 200);
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  const std::vector<size_t> starts = RangeStarts(enc);
  ASSERT_GE(starts.size(), 4u);
  for (size_t k = 1; k < starts.size(); ++k) {
    for (const size_t bytes : {starts[k] / 8 - 1, starts[k] / 8,
                               starts[k] / 8 + 1}) {
      // The whole stream cut there, and the payload cut there with its
      // length rewritten to match, so the decode itself meets the end.
      const std::vector<uint8_t> cut(enc.begin(),
                                     enc.begin() + PayloadAt(enc) + bytes);
      ExpectSameAsOneRange(cut, "stream cut at payload byte " +
                                    std::to_string(bytes));
      ExpectSameAsOneRange(WithPayloadBytes(enc, bytes),
                           "payload cut at byte " + std::to_string(bytes));
    }
  }
}

TEST(HuffmanMultiRangeTest, BitFlipsInFirstMiddleAndLastRange) {
  const std::vector<uint32_t> symbols = CodeLikeSymbols(250000, 81, 0.6, 40);
  const std::vector<uint8_t> enc = HuffmanEncode(symbols);
  const std::vector<size_t> starts = RangeStarts(enc);
  ASSERT_GE(starts.size(), 3u);
  const size_t payload_bits = (enc.size() - PayloadAt(enc)) * 8;
  Rng rng(82);
  for (const size_t k : {size_t{0}, starts.size() / 2, starts.size() - 1}) {
    const size_t lo = starts[k];
    const size_t hi = k + 1 < starts.size() ? starts[k + 1] : payload_bits;
    for (int trial = 0; trial < 12; ++trial) {
      std::vector<uint8_t> mutated = enc;
      const size_t bit = lo + rng.NextBelow(hi - lo);
      mutated[PayloadAt(enc) + bit / 8] ^=
          static_cast<uint8_t>(1u << (bit % 8));
      ExpectSameAsOneRange(mutated, "range " + std::to_string(k) + ", bit " +
                                        std::to_string(bit));
    }
  }
}

// ------------------------------------------------------ run-coded streams

std::vector<uint32_t> ToVector(const OverwriteVector<uint32_t>& v) {
  return std::vector<uint32_t>(v.begin(), v.end());
}

// The run-coded stream of `symbols`, checked to be written the same with
// every worker parked and to decode back with the default ranges and in
// `ranges` ranges, none of which falls back.
std::vector<uint8_t> RunsRoundTrip(const std::vector<uint32_t>& symbols,
                                   std::initializer_list<size_t> ranges = {
                                       1, 2, 3, 7}) {
  const std::vector<uint8_t> enc = HuffmanEncodeRuns(symbols);
  std::vector<uint8_t> parked;
  WithWorkersParked([&] { parked = HuffmanEncodeRuns(symbols); });
  EXPECT_EQ(parked, enc);
  OverwriteVector<uint32_t> dec;
  const Status st =
      HuffmanDecodeRuns(enc.data(), enc.size(), 0, symbols.size(), &dec);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(ToVector(dec), symbols);
  for (const size_t k : ranges) {
    std::vector<uint32_t> in_ranges;
    const Status rst = huffman_internal::DecodeRunsInRanges(
        enc.data(), enc.size(), 0, symbols.size(), k, &in_ranges);
    EXPECT_TRUE(rst.ok()) << k << " ranges: " << rst.ToString();
    EXPECT_EQ(in_ranges, symbols) << k << " ranges";
  }
  return enc;
}

// HuffmanDecodeRuns must return what the one-range decode returns, Status
// and symbols, with the pool free and with every worker parked.
void ExpectRunsSameAsOneRange(const std::vector<uint8_t>& enc,
                              uint64_t max_symbols, const std::string& what) {
  std::vector<uint32_t> one;
  OverwriteVector<uint32_t> free_pool, parked;
  const Status want = huffman_internal::DecodeRunsInRanges(
      enc.data(), enc.size(), 0, max_symbols, 1, &one);
  const Status got_free =
      HuffmanDecodeRuns(enc.data(), enc.size(), 0, max_symbols, &free_pool);
  Status got_parked;
  WithWorkersParked([&] {
    got_parked =
        HuffmanDecodeRuns(enc.data(), enc.size(), 0, max_symbols, &parked);
  });
  EXPECT_EQ(got_free.ToString(), want.ToString()) << what;
  EXPECT_EQ(got_parked.ToString(), want.ToString()) << what << " (parked)";
  EXPECT_EQ(ToVector(free_pool), one) << what;
  EXPECT_EQ(ToVector(parked), one) << what << " (parked)";
  if (!want.ok()) {
    EXPECT_TRUE(one.empty()) << what;
  }
}

TEST(HuffmanRunsTest, EmptyStreamIsItsCount) {
  EXPECT_EQ(RunsRoundTrip({}).size(), 8u);
}

TEST(HuffmanRunsTest, OneSymbolThroughoutIsOneRun) {
  // 2^17 + 5 copies: one run of 18 digits, and no symbol entries.
  const std::vector<uint32_t> symbols((size_t{1} << 17) + 5, 32768);
  const std::vector<uint8_t> enc = RunsRoundTrip(symbols, {1, 2, 5, 64});
  EXPECT_LE(enc.size(), 8u + 4 + 2 + 4 + 1 + 8 + 3);
}

TEST(HuffmanRunsTest, DominantSymbolThatNeverRepeats) {
  // Every other symbol is the dominant one, so every run is one long.
  std::vector<uint32_t> symbols(100001);
  Rng rng(901);
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = i % 2 == 0 ? 32768
                            : static_cast<uint32_t>(rng.NextBelow(32768));
  }
  RunsRoundTrip(symbols);
}

TEST(HuffmanRunsTest, RunLengthsOneToSeventy) {
  std::vector<uint32_t> symbols;
  for (size_t length = 1; length <= 70; ++length) {
    symbols.insert(symbols.end(), length, 7);
    symbols.push_back(length % 2 == 0 ? 3 : 11);
  }
  RunsRoundTrip(symbols, {1, 2, 3, 7, 64});
}

TEST(HuffmanRunsTest, RunLengthsAroundPowersOfTwo) {
  // One run and one other symbol: the stream is a few digits long, and the
  // decode writes the whole run from them.
  for (size_t k = 1; k <= 24; ++k) {
    for (const size_t length :
         {(size_t{1} << k) - 1, size_t{1} << k, (size_t{1} << k) + 1}) {
      std::vector<uint32_t> symbols(length + 1, 4);
      symbols.back() = 9;
      const std::vector<uint8_t> enc = HuffmanEncodeRuns(symbols);
      EXPECT_LE(enc.size(), 8u + 4 + 2 + 4 + 5 + 1 + 8 + 5) << length;
      OverwriteVector<uint32_t> dec;
      ASSERT_TRUE(
          HuffmanDecodeRuns(enc.data(), enc.size(), 0, symbols.size(), &dec)
              .ok())
          << length;
      ASSERT_EQ(dec.size(), symbols.size()) << length;
      EXPECT_TRUE(std::equal(dec.begin(), dec.end(), symbols.begin()))
          << length;
    }
  }
}

TEST(HuffmanRunsTest, RunsAtEveryEncodeRangeBoundary) {
  // Encode ranges hold 2^16 symbols. Runs of length 2 fill the stream
  // between single other symbols; at each range boundary b one run ends
  // at b, starts at b, straddles b, or covers the whole range after b and
  // a little more (so the next boundary too), each shape at every boundary
  // in turn, at 2, 3 and 6 ranges.
  constexpr size_t kRange = size_t{1} << 16;
  constexpr uint32_t kDom = 2;
  for (const size_t ranges : {size_t{2}, size_t{3}, size_t{6}}) {
    for (size_t shift = 0; shift < 4; ++shift) {
      const size_t n = (ranges - 1) * kRange + 777;
      std::vector<uint32_t> symbols(n, kDom);
      for (size_t i = 0; i < n; i += 3) {
        symbols[i] = 10 + static_cast<uint32_t>((i / 3) % 5);
      }
      auto run = [&](size_t from, size_t to) {
        std::fill(symbols.begin() + static_cast<long>(from),
                  symbols.begin() + static_cast<long>(std::min(to, n)),
                  kDom);
        if (from > 0) symbols[from - 1] = 1;
        if (to < n) symbols[to] = 1;
      };
      for (size_t r = 1; r < ranges; ++r) {
        const size_t b = r * kRange;
        switch ((r + shift) % 4) {
          case 0: run(b - 50, b); break;
          case 1: run(b, b + 50); break;
          case 2: run(b - 25, b + 25); break;
          default:
            run(b - 1, b + kRange + 10);
            ++r;  // the run straddles the next boundary too
            break;
        }
      }
      RunsRoundTrip(symbols, {1, 2, 3, 17});
    }
  }
}

// Runs of up to 2^8 codes between single wide symbols: most codewords are
// digits, so the decode's range boundaries fall inside runs.
std::vector<uint32_t> DigitHeavySymbols(size_t runs, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> symbols;
  for (size_t i = 0; i < runs; ++i) {
    symbols.insert(symbols.end(), 1 + rng.NextBelow(256), 32768);
    symbols.push_back(static_cast<uint32_t>(rng.NextBelow(4096)));
  }
  return symbols;
}

TEST(HuffmanRunsTest, RunsAcrossEveryDecodeRangeBoundary) {
  std::vector<uint32_t> symbols = DigitHeavySymbols(6000, 911);
  // End on a long run, so the last range a run reaches holds the stream's
  // end and its padding.
  symbols.insert(symbols.end(), 100000, 32768);
  const std::vector<uint8_t> enc =
      RunsRoundTrip(symbols, {1, 2, 3, 7, 17, 64, 257});
  EXPECT_LT(enc.size(), symbols.size() / 8);
  ExpectRunsSameAsOneRange(enc, symbols.size(), "digit-heavy stream");
}

TEST(HuffmanRunsTest, DominantSymbolIsTheLargest) {
  for (const uint32_t dom : {uint32_t{65535}, ~uint32_t{0}}) {
    std::vector<uint32_t> symbols = DigitHeavySymbols(3000, 913);
    for (uint32_t& s : symbols) {
      if (s == 32768) s = dom;
    }
    RunsRoundTrip(symbols, {1, 2, 7, 64});
  }
}

TEST(HuffmanRunsTest, BoundsOnTheSymbolCount) {
  const std::vector<uint32_t> symbols(1000, 5);
  const std::vector<uint8_t> enc = HuffmanEncodeRuns(symbols);
  OverwriteVector<uint32_t> dec;
  EXPECT_TRUE(
      HuffmanDecodeRuns(enc.data(), enc.size(), 1000, 1000, &dec).ok());
  for (const auto& [lo, hi] : {std::pair<uint64_t, uint64_t>{0, 999},
                               {1001, 5000}}) {
    const Status st = HuffmanDecodeRuns(enc.data(), enc.size(), lo, hi, &dec);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_EQ(st.message(), "huffman: implausible symbol count");
    EXPECT_TRUE(dec.empty());
  }
  // An empty stream meets only a lower bound of 0.
  const std::vector<uint8_t> empty = HuffmanEncodeRuns({});
  EXPECT_TRUE(HuffmanDecodeRuns(empty.data(), empty.size(), 0, 9, &dec).ok());
  EXPECT_FALSE(HuffmanDecodeRuns(empty.data(), empty.size(), 1, 9, &dec).ok());
}

TEST(HuffmanRunsTest, CutsAndBitFlipsMatchTheOneRangeDecode) {
  const std::vector<uint32_t> symbols = DigitHeavySymbols(6000, 917);
  const std::vector<uint8_t> enc = HuffmanEncodeRuns(symbols);
  for (size_t len = 0; len < enc.size(); len += 1 + len / 16) {
    const std::vector<uint8_t> cut(enc.begin(),
                                   enc.begin() + static_cast<long>(len));
    ExpectRunsSameAsOneRange(cut, symbols.size(),
                             "cut at " + std::to_string(len));
  }
  Rng rng(918);
  for (int trial = 0; trial < 48; ++trial) {
    std::vector<uint8_t> mutated = enc;
    const size_t bit = rng.NextBelow(mutated.size() * 8);
    mutated[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    ExpectRunsSameAsOneRange(mutated, symbols.size(),
                             "bit " + std::to_string(bit));
  }
}

}  // namespace
}  // namespace fxrz
