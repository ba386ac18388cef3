// Acceptance tests for the hardened decode layer: every decoder in the
// tree must return a non-OK Status (or a well-formed result) for ANY
// truncated prefix of a valid archive and for random single-bit
// corruptions -- with no crash, hang, or sanitizer report. Unlike the
// sampled sweeps in corruption_fuzz_test.cc, the prefix sweeps here are
// exhaustive over the whole archive.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/chunked.h"
#include "src/compressors/code_stream.h"
#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"
#include "src/store/field_store.h"
#include "src/util/byte_reader.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

// What a caller's tensor holds before a decode; a failed decode must
// leave it exactly so (Compressor::Decompress's contract), never a
// partly written or unwritten buffer.
Tensor Sentinel() {
  return Tensor({2, 3}, {1.5f, -0.0f, 7.0f, 0.0f, -3.25f, 9.0f});
}

// Decodes `mutated` into a sentinel-filled tensor and checks the
// hardened-decoder contract: either a non-OK Status with the tensor
// untouched, or a result whose shape matches the original tensor.
void ExpectSafeDecode(Compressor& comp, const std::vector<uint8_t>& mutated,
                      const Tensor& original, const std::string& what) {
  Tensor out = Sentinel();
  const Status st = comp.Decompress(mutated.data(), mutated.size(), &out);
  if (st.ok()) {
    EXPECT_EQ(out.dims(), original.dims()) << what;
  } else {
    EXPECT_TRUE(out.SameAs(Sentinel())) << what << ": " << st.ToString();
  }
}

class DecodeHardeningTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Compressor> MakeParamCompressor() const {
    if (GetParam() == "chunked") {
      return std::make_unique<ChunkedCompressor>(MakeCompressor("sz"),
                                                 /*target_chunk_elems=*/128);
    }
    return MakeCompressor(GetParam());
  }

  std::vector<uint8_t> CompressSample(Compressor& comp,
                                      const Tensor& data) const {
    const ConfigSpace space = comp.config_space(ValueRange(data));
    const double config =
        space.integer ? 12 : std::sqrt(space.min * space.max);
    return comp.Compress(data, config).value();
  }
};

TEST_P(DecodeHardeningTest, EveryPrefixRejectedOrWellFormed) {
  const auto comp = MakeParamCompressor();
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 811);
  const std::vector<uint8_t> bytes = CompressSample(*comp, data);
  ASSERT_GT(bytes.size(), 0u);

  // Exhaustive: every proper prefix of the archive.
  for (size_t len = 0; len < bytes.size(); ++len) {
    Tensor out = Sentinel();
    const Status st = comp->Decompress(bytes.data(), len, &out);
    EXPECT_FALSE(st.ok()) << GetParam() << ": prefix of " << len
                          << " bytes decoded";
    EXPECT_TRUE(out.SameAs(Sentinel()))
        << GetParam() << ": prefix of " << len << " bytes changed *out";
  }
}

TEST_P(DecodeHardeningTest, SixtyFourSingleBitFlipsAreSafe) {
  const auto comp = MakeParamCompressor();
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 812);
  const std::vector<uint8_t> bytes = CompressSample(*comp, data);

  Rng rng(813);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t byte = rng.NextBelow(mutated.size());
    const uint8_t bit = static_cast<uint8_t>(1u << rng.NextBelow(8));
    mutated[byte] ^= bit;
    ExpectSafeDecode(*comp, mutated, data,
                     GetParam() + ": bit flip at byte " +
                         std::to_string(byte));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDecoders, DecodeHardeningTest,
                         ::testing::Values("sz", "sz3", "zfp", "fpzip",
                                           "mgard", "chunked"),
                         [](const auto& info) { return info.param; });

// --- sz block metadata -----------------------------------------------------

// An sz archive's code stream: the error bound, then the selection bits,
// the coefficient codes, the quantization codes and the raw floats.
struct SzParts {
  uint32_t magic = 0;
  double eb = 0.0;
  std::vector<uint8_t> selection;
  OverwriteVector<uint32_t> coefficients;
  OverwriteVector<uint32_t> codes;
  std::vector<uint8_t> raw;
};

SzParts SplitSz(const std::vector<uint8_t>& archive) {
  SzParts parts;
  parts.magic = ReadUint32(archive.data());
  CodeStreamReader stream;
  EXPECT_TRUE(
      stream.Parse(archive.data(), archive.size(), parts.magic, "sz").ok());
  EXPECT_TRUE(stream.params()->ReadF64(&parts.eb));
  const uint8_t* bytes = nullptr;
  size_t size = 0;
  EXPECT_TRUE(stream.Bytes("selection bits", &bytes, &size).ok());
  parts.selection.assign(bytes, bytes + size);
  EXPECT_TRUE(stream
                  .Codes("coefficient codes", 0, stream.elements(),
                         &parts.coefficients)
                  .ok());
  EXPECT_TRUE(stream
                  .Codes("quantization codes", stream.elements(),
                         stream.elements(), &parts.codes)
                  .ok());
  EXPECT_TRUE(stream.Bytes("raw floats", &bytes, &size).ok());
  parts.raw.assign(bytes, bytes + size);
  return parts;
}

std::vector<uint8_t> JoinSz(const SzParts& parts, const Tensor& shape) {
  CodeStreamWriter stream;
  AppendDouble(stream.params(), parts.eb);
  stream.AddBytes(parts.selection);
  stream.AddCodes(parts.coefficients);
  stream.AddCodes(parts.codes);
  stream.AddBytes(parts.raw);
  return std::move(stream).Finish(parts.magic, shape);
}

TEST(SzBlockMetadataTest, SectionShortByOneItemIsTruncatedMetadata) {
  // 54^3 points: 9^3 = 729 blocks, so the selection bits fill 92 bytes
  // with one bit in the last, and the field is large enough to decode in
  // parallel rows. Noise around smooth trends makes some blocks pick the
  // regression predictor, and one huge value is stored verbatim.
  constexpr size_t kN = 54;
  Tensor data({kN, kN, kN});
  Rng rng(851);
  for (size_t z = 0, i = 0; z < kN; ++z) {
    for (size_t y = 0; y < kN; ++y) {
      for (size_t x = 0; x < kN; ++x, ++i) {
        data.data()[i] = static_cast<float>(
            std::sin(0.2 * x) + std::cos(0.15 * y) + 0.1 * z +
            0.05 * rng.NextGaussian());
      }
    }
  }
  data.data()[kN * kN * 20 + kN * 30 + 40] = 1e30f;
  const auto sz = MakeCompressor("sz");
  const std::vector<uint8_t> archive = sz->Compress(data, 0.01).value();
  const SzParts parts = SplitSz(archive);
  ASSERT_EQ(parts.selection.size(), 92u);
  ASSERT_GE(parts.coefficients.size(), 4u);
  ASSERT_GE(parts.raw.size(), 4u);
  ASSERT_EQ(JoinSz(parts, data), archive);
  Tensor out;

  SzParts short_selection = parts;
  short_selection.selection.pop_back();
  SzParts short_coefficients = parts;
  short_coefficients.coefficients.pop_back();
  SzParts short_raw = parts;
  short_raw.raw.resize(short_raw.raw.size() - 4);
  const std::pair<const char*, const SzParts*> cases[] = {
      {"selection bits", &short_selection},
      {"coefficient codes", &short_coefficients},
      {"raw floats", &short_raw}};
  for (const auto& [what, broken] : cases) {
    const std::vector<uint8_t> bytes = JoinSz(*broken, data);
    const Status st = sz->Decompress(bytes.data(), bytes.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what;
    EXPECT_EQ(st.message(), "sz: truncated block metadata") << what;
  }
}

// --- Run-coded code sections ----------------------------------------------

// A run-coded stream (HuffmanEncodeRuns's layout) of `count` symbols whose
// table holds only the two run digits, one bit each (RUNA 0, RUNB 1), and
// whose payload is `digits` (1: RUNA, 2: RUNB).
std::vector<uint8_t> DigitStream(uint64_t count,
                                 const std::vector<uint8_t>& digits) {
  std::vector<uint8_t> out;
  AppendUint64(&out, count);
  AppendUint32(&out, 32768);  // the dominant symbol
  out.push_back(1);           // RUNA's code length
  out.push_back(1);           // RUNB's
  AppendUint32(&out, 0);      // no symbol entries
  const size_t bytes = (digits.size() + 7) / 8;
  out.push_back(static_cast<uint8_t>(bytes * 8 - digits.size()));
  AppendUint64(&out, bytes);
  std::vector<uint8_t> payload(bytes, 0);
  for (size_t i = 0; i < digits.size(); ++i) {
    if (digits[i] == 2) payload[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// The digits of a run of `length`, least significant first.
std::vector<uint8_t> RunDigits(uint64_t length) {
  std::vector<uint8_t> digits;
  for (uint64_t v = length + 1; v > 1; v >>= 1) {
    digits.push_back(static_cast<uint8_t>(1 + (v & 1)));
  }
  return digits;
}

// An 8^3 mgard archive whose one code section is `section`.
std::vector<uint8_t> MgardWithCodes(const std::vector<uint8_t>& section) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 861);
  const std::vector<uint8_t> archive =
      MakeCompressor("mgard")->Compress(data, 0.05).value();
  // The header (magic, rank, three dims), then the parameter block (eb,
  // offset, levels), then the code section's length.
  constexpr size_t kSectionAt = 4 + 4 + 3 * 8 + 8 + 8 + 1;
  std::vector<uint8_t> forged(archive.begin(), archive.begin() + kSectionAt);
  AppendUint64(&forged, section.size());
  forged.insert(forged.end(), section.begin(), section.end());
  return forged;
}

TEST(RunCodedSectionTest, ForgedRunsFailBeforeAnyUnboundedAllocation) {
  const auto mgard = MakeCompressor("mgard");
  constexpr uint64_t kElements = 512;
  // The archive of a valid digit stream decodes.
  {
    const std::vector<uint8_t> ok = MgardWithCodes(
        DigitStream(kElements, RunDigits(kElements)));
    Tensor out;
    ASSERT_TRUE(mgard->Decompress(ok.data(), ok.size(), &out).ok());
  }
  std::vector<uint8_t> huge(64, 2);
  const std::pair<std::string, std::vector<uint8_t>> cases[] = {
      // The stream ends inside its last run: 511 of 512 codes.
      {"huffman: truncated code stream",
       DigitStream(kElements, RunDigits(kElements - 1))},
      // The run's digits add up to one code past the element count.
      {"huffman: run past symbol count",
       DigitStream(kElements, RunDigits(kElements + 1))},
      // 64 RUNB digits: a run of 2^65 - 2 codes.
      {"huffman: run past symbol count", DigitStream(kElements, huge)},
      // Counts other than the tensor's, one no memory could hold among
      // them.
      {"huffman: implausible symbol count",
       DigitStream(kElements + 1, RunDigits(kElements + 1))},
      {"huffman: implausible symbol count",
       DigitStream(kElements - 1, RunDigits(kElements - 1))},
      {"huffman: implausible symbol count",
       DigitStream(uint64_t{1} << 40, huge)},
  };
  for (const auto& [message, section] : cases) {
    const std::vector<uint8_t> bytes = MgardWithCodes(section);
    Tensor out = Sentinel();
    const Status st = mgard->Decompress(bytes.data(), bytes.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << message;
    EXPECT_EQ(st.message(), message);
    EXPECT_TRUE(out.SameAs(Sentinel())) << message;
  }
}

TEST(RunCodedSectionTest, ArchivesOfThePreviousFormatNameTheirCodec) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 862);
  // The magics written before code sections were run-coded.
  const std::pair<std::string, uint32_t> old[] = {
      {"sz", 0x535A4C32}, {"sz3", 0x535A3331}, {"mgard", 0x4D475231}};
  for (const auto& [codec, magic] : old) {
    const auto comp = MakeCompressor(codec);
    std::vector<uint8_t> bytes = comp->Compress(data, 0.05).value();
    for (int i = 0; i < 4; ++i) {
      bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(magic >> (8 * i));
    }
    Tensor out = Sentinel();
    const Status st = comp->Decompress(bytes.data(), bytes.size(), &out);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << codec;
    EXPECT_EQ(st.message(), codec + ": bad magic");
    EXPECT_TRUE(out.SameAs(Sentinel())) << codec;
  }
}

// --- Chunked archive index validation -------------------------------------

std::vector<uint8_t> MakeChunkedArchive(const Tensor& data) {
  ChunkedCompressor chunked(MakeCompressor("sz"), /*target_chunk_elems=*/128);
  return chunked.Compress(data, 0.02).value();
}

void PatchU64(std::vector<uint8_t>* bytes, size_t pos, uint64_t value) {
  ASSERT_LE(pos + 8, bytes->size());
  for (int i = 0; i < 8; ++i) {
    (*bytes)[pos + static_cast<size_t>(i)] =
        static_cast<uint8_t>(value >> (8 * i));
  }
}

TEST(ChunkedIndexValidationTest, OversizedChunkLengthRejected) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 821);
  std::vector<uint8_t> bytes = MakeChunkedArchive(data);
  ChunkedCompressor chunked(MakeCompressor("sz"), 128);

  // Archive layout after the header: u32 chunk count, then per chunk a u64
  // length prefix. Find the first length prefix by scanning the header:
  // magic(4) + rank(4) + 3 dims(24) + count(4) = 36 bytes in.
  const size_t first_len_pos = 36;
  // Claim the first chunk spans far past the end of the archive.
  PatchU64(&bytes, first_len_pos, bytes.size() * 2);
  Tensor out;
  EXPECT_FALSE(chunked.Decompress(bytes.data(), bytes.size(), &out).ok());

  // Claim a length so large the offset computation would wrap if it were
  // done with addition instead of subtraction.
  PatchU64(&bytes, first_len_pos, ~uint64_t{0} - 16);
  EXPECT_FALSE(chunked.Decompress(bytes.data(), bytes.size(), &out).ok());
}

TEST(ChunkedIndexValidationTest, TrailingBytesRejected) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 822);
  std::vector<uint8_t> bytes = MakeChunkedArchive(data);
  ChunkedCompressor chunked(MakeCompressor("sz"), 128);
  Tensor out;
  ASSERT_TRUE(chunked.Decompress(bytes.data(), bytes.size(), &out).ok());
  bytes.push_back(0x00);
  EXPECT_FALSE(chunked.Decompress(bytes.data(), bytes.size(), &out).ok());
}

TEST(ChunkedIndexValidationTest, ForgedChunkCountRejected) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 823);
  std::vector<uint8_t> bytes = MakeChunkedArchive(data);
  ChunkedCompressor chunked(MakeCompressor("sz"), 128);
  // The u32 chunk count lives right after the 32-byte tensor header.
  const size_t count_pos = 32;
  ASSERT_LE(count_pos + 4, bytes.size());
  for (int i = 0; i < 4; ++i) bytes[count_pos + static_cast<size_t>(i)] = 0xff;
  Tensor out;
  EXPECT_FALSE(chunked.Decompress(bytes.data(), bytes.size(), &out).ok());
}

// --- Entropy coders -------------------------------------------------------

TEST(EntropyCoderHardeningTest, HuffmanPrefixesAndBitFlipsAreSafe) {
  std::vector<uint32_t> symbols(700);
  Rng rng(831);
  for (auto& s : symbols) {
    s = static_cast<uint32_t>(32768 + rng.NextBelow(17)) - 8;
  }
  const std::vector<uint8_t> bytes = HuffmanEncode(symbols);

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint32_t> out;
    // A prefix must fail cleanly; it can never silently decode.
    EXPECT_FALSE(HuffmanDecode(bytes.data(), len, &out).ok())
        << "huffman prefix " << len;
  }
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBelow(8));
    std::vector<uint32_t> out;
    const Status st = HuffmanDecode(mutated.data(), mutated.size(), &out);
    if (st.ok()) {
      // Bounded by the declared symbol count, never runaway.
      EXPECT_LE(out.size(), symbols.size());
    }
  }
}

TEST(EntropyCoderHardeningTest, ZlitePrefixesAndBitFlipsAreSafe) {
  std::vector<uint8_t> text(900);
  Rng rng(832);
  for (size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<uint8_t>((i / 7) % 31);
  }
  const std::vector<uint8_t> bytes = ZliteCompress(text);

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> out;
    EXPECT_FALSE(ZliteDecompress(bytes.data(), len, &out).ok())
        << "zlite prefix " << len;
  }
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBelow(8));
    std::vector<uint8_t> out;
    const Status st = ZliteDecompress(mutated.data(), mutated.size(), &out);
    if (st.ok()) {
      EXPECT_EQ(out.size(), text.size());
    }
  }
}

// --- FieldStore -----------------------------------------------------------

TEST(FieldStoreHardeningTest, PrefixesAndBitFlipsAreSafe) {
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 841);
  FieldStoreWriter writer("sz");
  ASSERT_TRUE(writer.AddFieldFixedConfig("rho", data, 0.02).ok());
  const std::vector<uint8_t> bytes = writer.Serialize();

  for (size_t len = 0; len < bytes.size(); ++len) {
    FieldStoreReader reader;
    const Status st =
        reader.FromBytes(std::vector<uint8_t>(bytes.begin(),
                                              bytes.begin() +
                                                  static_cast<long>(len)));
    if (st.ok()) {
      // Index may parse from a prefix only if every payload span fits; in
      // that case reading the field must still be safe.
      for (const FieldEntry& e : reader.entries()) {
        Tensor out;
        (void)reader.ReadField(e.name, &out);
      }
    }
  }

  Rng rng(842);
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    mutated[rng.NextBelow(mutated.size())] ^=
        static_cast<uint8_t>(1u << rng.NextBelow(8));
    FieldStoreReader reader;
    if (reader.FromBytes(mutated).ok()) {
      for (const FieldEntry& e : reader.entries()) {
        Tensor out;
        (void)reader.ReadField(e.name, &out);
      }
    }
  }
}

}  // namespace
}  // namespace fxrz
