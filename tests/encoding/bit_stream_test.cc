#include "src/encoding/bit_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/encoding/negabinary.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

TEST(BitStreamTest, SingleBits) {
  BitWriter bw;
  const std::vector<uint32_t> bits = {1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1};
  for (uint32_t b : bits) bw.WriteBit(b);
  EXPECT_EQ(bw.bit_count(), bits.size());
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader br(bytes);
  for (uint32_t b : bits) EXPECT_EQ(br.ReadBit(), b);
  EXPECT_FALSE(br.overrun());
}

TEST(BitStreamTest, MultiBitValuesLsbFirst) {
  BitWriter bw;
  bw.WriteBits(0b1011, 4);
  bw.WriteBits(0xABCD, 16);
  bw.WriteBits(0, 1);
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader br(bytes);
  EXPECT_EQ(br.ReadBits(4), 0b1011u);
  EXPECT_EQ(br.ReadBits(16), 0xABCDu);
  EXPECT_EQ(br.ReadBits(1), 0u);
}

TEST(BitStreamTest, SixtyFourBitValues) {
  Rng rng(91);
  BitWriter bw;
  std::vector<uint64_t> values;
  for (int i = 0; i < 100; ++i) {
    values.push_back(rng.NextUint64());
    bw.WriteBits(values.back(), 64);
  }
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader br(bytes);
  for (uint64_t v : values) EXPECT_EQ(br.ReadBits(64), v);
}

TEST(BitStreamTest, ReadPastEndSetsOverrun) {
  BitWriter bw;
  bw.WriteBits(0xFF, 8);
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader br(bytes);
  br.ReadBits(8);
  EXPECT_FALSE(br.overrun());
  EXPECT_EQ(br.ReadBit(), 0u);
  EXPECT_TRUE(br.overrun());
}

TEST(BitStreamTest, BitsRemaining) {
  std::vector<uint8_t> bytes = {0xFF, 0x00};
  BitReader br(bytes);
  EXPECT_EQ(br.bits_remaining(), 16u);
  br.ReadBits(5);
  EXPECT_EQ(br.bits_remaining(), 11u);
}

TEST(BitStreamTest, PeekDoesNotConsumeOrFlagOverrun) {
  BitWriter bw;
  bw.WriteBits(0b1101'0110'1010, 12);
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader br(bytes);
  // Peeking past the logical end zero-fills and must not set overrun.
  EXPECT_EQ(br.PeekBits(12), 0b1101'0110'1010u);
  EXPECT_EQ(br.PeekBits(BitReader::kPeekMax) & 0xFFFu, 0b1101'0110'1010u);
  EXPECT_EQ(br.PeekBits(BitReader::kPeekMax) >> 16, 0u);
  EXPECT_FALSE(br.overrun());
  // Repeated peeks are idempotent.
  EXPECT_EQ(br.PeekBits(5), br.PeekBits(5));
  br.Advance(7);
  EXPECT_EQ(br.bits_remaining(), 9u);
  EXPECT_FALSE(br.overrun());
  // Advancing past the end clamps and sets the sticky overrun flag.
  br.Advance(100);
  EXPECT_EQ(br.bits_remaining(), 0u);
  EXPECT_TRUE(br.overrun());
}

TEST(BitStreamTest, PeekAdvanceMatchesReadBits) {
  Rng rng(17);
  BitWriter bw;
  std::vector<std::pair<uint64_t, size_t>> chunks;
  for (int i = 0; i < 500; ++i) {
    const size_t width = 1 + rng.NextBelow(BitReader::kPeekMax);
    const uint64_t value =
        rng.NextUint64() & ((width == 64) ? ~0ull : ((1ull << width) - 1));
    chunks.push_back({value, width});
    bw.WriteBits(value, width);
  }
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  BitReader via_read(bytes);
  BitReader via_peek(bytes);
  for (const auto& [value, width] : chunks) {
    EXPECT_EQ(via_read.ReadBits(width), value);
    EXPECT_EQ(via_peek.PeekBits(width), value);
    via_peek.Advance(width);
  }
  EXPECT_FALSE(via_read.overrun());
  EXPECT_FALSE(via_peek.overrun());
}

TEST(BitStreamTest, BatchedWritesMatchPerBitReference) {
  // The accumulator-backed writer must produce the exact byte stream of a
  // plain bit-by-bit packer for any interleaving of widths, including
  // writes that straddle the 64-bit accumulator boundary.
  Rng rng(18);
  for (int rep = 0; rep < 20; ++rep) {
    BitWriter batched;
    std::vector<uint8_t> reference;
    size_t bits = 0;
    for (int i = 0; i < 200; ++i) {
      const size_t width = rng.NextBelow(65);
      const uint64_t value = rng.NextUint64();
      batched.WriteBits(value, width);
      for (size_t b = 0; b < width; ++b, ++bits) {
        if (bits % 8 == 0) reference.push_back(0);
        const unsigned bit = (value >> b) & 1;
        reference.back() |= static_cast<uint8_t>(bit << (bits % 8));
      }
    }
    EXPECT_EQ(batched.bit_count(), bits);
    EXPECT_EQ(std::move(batched).Take(), reference);
  }
}

TEST(BitStreamTest, ContinuesAfterPrefix) {
  BitWriter bw(std::vector<uint8_t>{0xAA, 0xBB});
  EXPECT_EQ(bw.bit_count(), 16u);
  bw.WriteBits(0x5, 3);
  bw.WriteBits(0x1FF, 9);
  EXPECT_EQ(bw.bit_count(), 28u);
  const std::vector<uint8_t> bytes = std::move(bw).Take();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xAA);
  EXPECT_EQ(bytes[1], 0xBB);
  BitReader br(bytes.data() + 2, 2);
  EXPECT_EQ(br.ReadBits(3), 0x5u);
  EXPECT_EQ(br.ReadBits(9), 0x1FFu);
  EXPECT_EQ(br.ReadBits(4), 0u);  // zero padding
}

TEST(RangeBitWriterTest, SplicedSegmentsEqualOneSerialWriter) {
  // Segments of random bit lengths, written once by a single BitWriter and
  // once each into their own BitWriter, then spliced at the prefix-sum
  // offsets in reverse order (as parallel ranges may finish), so a writer
  // that stores past its own tail over the next segment's bytes shows.
  // Lengths cover zero, sub-byte, byte and word multiples, and multi-word
  // runs, so the offsets land on every bit position. The same segments then
  // go through AppendBitRanges, which must give the same payload.
  Rng rng(19);
  for (int rep = 0; rep < 50; ++rep) {
    const size_t segments = 1 + rng.NextBelow(12);
    BitWriter serial;
    std::vector<std::vector<uint8_t>> parts;
    std::vector<size_t> start = {0};
    for (size_t k = 0; k < segments; ++k) {
      const size_t kind = rng.NextBelow(4);
      const size_t len = kind == 0   ? rng.NextBelow(9)
                         : kind == 1 ? 64 * rng.NextBelow(4)
                                     : rng.NextBelow(700);
      BitWriter part;
      for (size_t done = 0; done < len;) {
        const size_t width = std::min<size_t>(len - done, 1 + rng.NextBelow(64));
        const uint64_t value = rng.NextUint64();
        serial.WriteBits(value, width);
        part.WriteBits(value, width);
        done += width;
      }
      start.push_back(start.back() + part.bit_count());
      parts.push_back(std::move(part).Take());
    }
    const std::vector<uint8_t> want = std::move(serial).Take();
    std::vector<uint8_t> payload((start.back() + 7) / 8, 0);
    std::vector<uint8_t> first(segments, 0);
    for (size_t k = segments; k-- > 0;) {
      RangeBitWriter w(payload.data(), start[k]);
      w.WriteStream(parts[k].data(), start[k + 1] - start[k]);
      first[k] = w.Finish();
    }
    for (size_t k = 0; k < segments; ++k) payload[start[k] / 8] |= first[k];
    EXPECT_EQ(payload, want) << "rep " << rep;

    std::vector<size_t> part_bits(segments);
    for (size_t k = 0; k < segments; ++k) {
      part_bits[k] = start[k + 1] - start[k];
    }
    std::vector<uint8_t> out = {0xA5};  // bytes already in the buffer stay
    AppendBitRanges(
        part_bits,
        [&](size_t r, RangeBitWriter* w) {
          w->WriteStream(parts[r].data(), part_bits[r]);
        },
        &out);
    ASSERT_EQ(out.size(), 9 + want.size());
    EXPECT_EQ(out[0], 0xA5);
    EXPECT_EQ(ReadUint64(out.data() + 1), want.size());
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + 9, out.end()), want)
        << "rep " << rep;
  }
}

TEST(RangeBitWriterTest, WholeWordWritesMatchBitWriter) {
  // 64-bit writes at every alignment, once straight into a RangeBitWriter
  // at `offset` and once through AppendBitRanges behind a lead range of
  // `offset` zero bits.
  Rng rng(20);
  for (size_t offset = 0; offset < 16; ++offset) {
    BitWriter serial;
    serial.WriteBits(0, offset);
    std::vector<uint64_t> words(5);
    for (uint64_t& w : words) {
      w = rng.NextUint64();
      serial.WriteBits(w, 64);
    }
    const std::vector<uint8_t> want = std::move(serial).Take();
    std::vector<uint8_t> payload(want.size(), 0);
    RangeBitWriter direct(payload.data(), offset);
    for (uint64_t word : words) direct.WriteBits(word, 64);
    payload[offset / 8] |= direct.Finish();
    EXPECT_EQ(payload, want) << "offset " << offset;

    std::vector<uint8_t> out;
    AppendBitRanges(
        {offset, 64 * words.size()},
        [&](size_t r, RangeBitWriter* w) {
          if (r == 0) {
            w->WriteBits(0, offset);
          } else {
            for (uint64_t word : words) w->WriteBits(word, 64);
          }
        },
        &out);
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + 8, out.end()), want)
        << "offset " << offset;
  }
}

TEST(AppendBitRangesTest, MatchesOneBitWriterAtEveryAlignment) {
  // Ranges of 0-200 random bits behind a lead range of 0-7 bits, so every
  // range starts at every bit alignment over the reps. Empty ranges (a
  // zlite range whose tokens were all superseded) and ranges shorter than
  // the byte they share with a neighbour are drawn often. Even ranges are
  // written with WriteBits, odd ones copied with WriteStream from a bit
  // offset, the two forms the encoders use.
  Rng rng(21);
  for (int rep = 0; rep < 400; ++rep) {
    const size_t lead = static_cast<size_t>(rep) % 8;
    const size_t ranges = 2 + rng.NextBelow(12);
    std::vector<size_t> bits(ranges, lead);
    for (size_t r = 1; r < ranges; ++r) {
      const size_t kind = rng.NextBelow(4);
      bits[r] = kind == 0   ? 0
                : kind == 1 ? 1 + rng.NextBelow(7)
                            : rng.NextBelow(201);
    }
    // Range r's bits, as (value, width) writes, and as a stream that
    // starts `skip[r]` bits into its buffer.
    std::vector<std::vector<std::pair<uint64_t, size_t>>> writes(ranges);
    std::vector<std::vector<uint8_t>> streams(ranges);
    std::vector<size_t> skip(ranges);
    BitWriter serial;
    for (size_t r = 0; r < ranges; ++r) {
      skip[r] = rng.NextBelow(16);
      BitWriter stream;
      stream.WriteBits(rng.NextUint64(), skip[r]);
      for (size_t done = 0; done < bits[r];) {
        const size_t width =
            std::min<size_t>(bits[r] - done, 1 + rng.NextBelow(64));
        const uint64_t value =
            rng.NextUint64() & (width == 64 ? ~0ull : (1ull << width) - 1);
        writes[r].emplace_back(value, width);
        stream.WriteBits(value, width);
        serial.WriteBits(value, width);
        done += width;
      }
      streams[r] = std::move(stream).Take();
    }
    const std::vector<uint8_t> want = std::move(serial).Take();
    std::vector<uint8_t> out;
    AppendBitRanges(
        bits,
        [&](size_t r, RangeBitWriter* w) {
          if (r % 2 == 0) {
            for (const auto& [value, width] : writes[r]) {
              w->WriteBits(value, width);
            }
          } else {
            w->WriteStream(streams[r].data(), skip[r], bits[r]);
          }
        },
        &out);
    ASSERT_GE(out.size(), 8u);
    EXPECT_EQ(ReadUint64(out.data()), want.size()) << "rep " << rep;
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + 8, out.end()), want)
        << "rep " << rep;
  }
}

TEST(AppendBitRangesTest, EmptyRangesAtTheEnds) {
  // An empty last range that starts on the byte just past the payload, an
  // empty first range, and no ranges at all.
  const std::vector<std::vector<size_t>> cases = {
      {8, 0}, {16, 0, 0}, {0, 5}, {0}, {}};
  auto ones = [](size_t n) { return n == 0 ? 0 : ~0ull >> (64 - n); };
  for (const std::vector<size_t>& bits : cases) {
    BitWriter serial;
    for (size_t n : bits) serial.WriteBits(ones(n), n);
    const std::vector<uint8_t> want = std::move(serial).Take();
    std::vector<uint8_t> out;
    AppendBitRanges(
        bits,
        [&](size_t r, RangeBitWriter* w) {
          w->WriteBits(ones(bits[r]), bits[r]);
        },
        &out);
    ASSERT_EQ(out.size(), 8 + want.size());
    EXPECT_EQ(ReadUint64(out.data()), want.size());
    EXPECT_EQ(std::vector<uint8_t>(out.begin() + 8, out.end()), want);
  }
}

TEST(LittleEndianHelpersTest, RoundTrip) {
  std::vector<uint8_t> buf;
  AppendUint32(&buf, 0xDEADBEEFu);
  AppendUint64(&buf, 0x0123456789ABCDEFull);
  AppendDouble(&buf, -3.14159);
  EXPECT_EQ(ReadUint32(buf.data()), 0xDEADBEEFu);
  EXPECT_EQ(ReadUint64(buf.data() + 4), 0x0123456789ABCDEFull);
  EXPECT_EQ(ReadDouble(buf.data() + 12), -3.14159);
}

TEST(NegabinaryTest, ZeroMapsToZero) {
  EXPECT_EQ(Int64ToNegabinary(0), 0u);
  EXPECT_EQ(NegabinaryToInt64(0), 0);
}

TEST(NegabinaryTest, RoundTripSmallValues) {
  for (int64_t v = -1000; v <= 1000; ++v) {
    EXPECT_EQ(NegabinaryToInt64(Int64ToNegabinary(v)), v) << v;
  }
}

TEST(NegabinaryTest, RoundTripRandomValues) {
  Rng rng(92);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextUint64() >> 2) *
                      (rng.NextBelow(2) ? 1 : -1);
    EXPECT_EQ(NegabinaryToInt64(Int64ToNegabinary(v)), v);
  }
}

TEST(NegabinaryTest, SmallMagnitudesUseLowBits) {
  // The property bitplane coding relies on: small |x| => only low
  // negabinary bits set.
  for (int64_t v = -8; v <= 8; ++v) {
    EXPECT_LT(Int64ToNegabinary(v), 64u) << v;
  }
}

}  // namespace
}  // namespace fxrz
