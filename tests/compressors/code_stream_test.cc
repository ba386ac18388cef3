// The code-stream layout sz, sz3 and mgard share: a round trip of every
// kind of section, and named Corruption statuses for a cut or forged body.

#include "src/compressors/code_stream.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/encoding/bit_stream.h"
#include "src/encoding/huffman.h"
#include "src/encoding/zlite.h"

namespace fxrz {
namespace {

constexpr uint32_t kMagic = 0x54455354;  // "TEST"

struct Section {
  const char* what;
  bool codes;
  std::vector<uint8_t> bytes;
  std::vector<uint32_t> symbols;
};

// A parameter block of 9 bytes, then sections of every kind, empty ones
// included.
std::vector<Section> SampleSections() {
  std::vector<uint32_t> symbols(300);
  for (size_t i = 0; i < symbols.size(); ++i) {
    symbols[i] = static_cast<uint32_t>(32768 + (i * 7) % 13) - 6;
  }
  return {{"flags", false, {1, 2, 3, 250}, {}},
          {"first codes", true, {}, symbols},
          {"empty bytes", false, {}, {}},
          {"empty codes", true, {}, {}},
          {"tail", false, {9, 8, 7, 6, 5}, {}}};
}

std::vector<uint8_t> Write(const std::vector<Section>& sections,
                           const Tensor& shape) {
  CodeStreamWriter stream;
  AppendDouble(stream.params(), 0.125);
  stream.params()->push_back(7);
  for (const Section& s : sections) {
    if (s.codes) {
      stream.AddCodes(s.symbols);
    } else {
      stream.AddBytes(s.bytes);
    }
  }
  return std::move(stream).Finish(kMagic, shape);
}

// Reads the parameter block and every section back, and returns the first
// failure.
Status ReadAll(const std::vector<uint8_t>& archive,
               const std::vector<Section>& sections) {
  CodeStreamReader stream;
  FXRZ_RETURN_IF_ERROR(
      stream.Parse(archive.data(), archive.size(), kMagic, "test"));
  double eb = 0.0;
  uint8_t level = 0;
  if (!stream.params()->ReadF64(&eb) || !stream.params()->ReadU8(&level)) {
    return Status::Corruption("test: short body");
  }
  for (const Section& s : sections) {
    if (s.codes) {
      OverwriteVector<uint32_t> symbols;
      FXRZ_RETURN_IF_ERROR(stream.Codes(s.what, &symbols));
    } else {
      const uint8_t* bytes = nullptr;
      size_t size = 0;
      FXRZ_RETURN_IF_ERROR(stream.Bytes(s.what, &bytes, &size));
    }
  }
  return Status::Ok();
}

// The archive's header and its unpacked body.
struct Unpacked {
  std::vector<uint8_t> header;
  std::vector<uint8_t> body;
};

Unpacked Unpack(const std::vector<uint8_t>& archive) {
  ByteReader reader(archive);
  std::vector<size_t> dims;
  EXPECT_TRUE(compressor_internal::ParseHeader(&reader, kMagic, &dims).ok());
  Unpacked u;
  u.header.assign(archive.begin(),
                  archive.begin() + static_cast<long>(reader.position()));
  EXPECT_TRUE(
      ZliteDecompress(reader.cursor(), reader.remaining(), &u.body).ok());
  return u;
}

std::vector<uint8_t> Repack(const std::vector<uint8_t>& header,
                            const std::vector<uint8_t>& body) {
  std::vector<uint8_t> archive = header;
  const std::vector<uint8_t> packed = ZliteCompress(body);
  archive.insert(archive.end(), packed.begin(), packed.end());
  return archive;
}

TEST(CodeStreamTest, RoundTripsParametersAndSections) {
  const Tensor shape({3, 4, 5});
  const std::vector<Section> sections = SampleSections();
  const std::vector<uint8_t> archive = Write(sections, shape);

  CodeStreamReader stream;
  ASSERT_TRUE(
      stream.Parse(archive.data(), archive.size(), kMagic, "test").ok());
  EXPECT_EQ(stream.dims(), shape.dims());
  double eb = 0.0;
  uint8_t level = 0;
  ASSERT_TRUE(stream.params()->ReadF64(&eb));
  ASSERT_TRUE(stream.params()->ReadU8(&level));
  EXPECT_EQ(eb, 0.125);
  EXPECT_EQ(level, 7);
  for (const Section& s : sections) {
    if (s.codes) {
      OverwriteVector<uint32_t> symbols;
      ASSERT_TRUE(stream.Codes(s.what, &symbols).ok()) << s.what;
      EXPECT_EQ(std::vector<uint32_t>(symbols.begin(), symbols.end()),
                s.symbols)
          << s.what;
    } else {
      const uint8_t* bytes = nullptr;
      size_t size = 0;
      ASSERT_TRUE(stream.Bytes(s.what, &bytes, &size).ok()) << s.what;
      EXPECT_EQ(std::vector<uint8_t>(bytes, bytes + size), s.bytes) << s.what;
    }
  }
  EXPECT_EQ(stream.params()->remaining(), 0u);

  // Past the last section.
  const uint8_t* bytes = nullptr;
  size_t size = 0;
  const Status st = stream.Bytes("extra", &bytes, &size);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "test: truncated extra");
}

TEST(CodeStreamTest, EveryTruncatedBodyNamesTheCodecAndSection) {
  const Tensor shape({6, 7});
  const std::vector<Section> sections = SampleSections();
  const Unpacked u = Unpack(Write(sections, shape));
  ASSERT_TRUE(ReadAll(Repack(u.header, u.body), sections).ok());

  // Where each section ends in the body: the 9-byte parameter block, then
  // `u64 length | bytes` per section.
  std::vector<size_t> ends;
  size_t end = 9;
  for (const Section& s : sections) {
    end += 8 + (s.codes ? HuffmanEncode(s.symbols).size() : s.bytes.size());
    ends.push_back(end);
  }
  ASSERT_EQ(end, u.body.size());

  for (size_t len = 0; len < u.body.size(); ++len) {
    const std::vector<uint8_t> cut(u.body.begin(),
                                   u.body.begin() + static_cast<long>(len));
    const Status st = ReadAll(Repack(u.header, cut), sections);
    ASSERT_EQ(st.code(), StatusCode::kCorruption) << len;
    if (len < 9) {
      EXPECT_EQ(st.message(), "test: short body") << len;
      continue;
    }
    size_t cut_in = 0;
    while (ends[cut_in] <= len) ++cut_in;
    EXPECT_EQ(st.message(),
              std::string("test: truncated ") + sections[cut_in].what)
        << len;
  }
}

TEST(CodeStreamTest, SectionLengthPastTheBodyIsCorruption) {
  const Tensor shape({6, 7});
  const std::vector<Section> sections = SampleSections();
  const Unpacked u = Unpack(Write(sections, shape));
  // The first section's length sits right after the 9-byte parameter block.
  for (const uint64_t forged :
       {static_cast<uint64_t>(u.body.size()), ~uint64_t{0}}) {
    std::vector<uint8_t> body = u.body;
    for (int i = 0; i < 8; ++i) {
      body[9 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(forged >> (8 * i));
    }
    const Status st = ReadAll(Repack(u.header, body), sections);
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_EQ(st.message(), "test: truncated flags");
  }
}

TEST(CodeStreamTest, WrongMagicIsBadMagic) {
  const Tensor shape({6, 7});
  const std::vector<uint8_t> archive = Write(SampleSections(), shape);
  CodeStreamReader stream;
  const Status st =
      stream.Parse(archive.data(), archive.size(), kMagic + 1, "test");
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "bad magic");
}

}  // namespace
}  // namespace fxrz
