// Archive and decode bytes of every codec at every rank, pinned by hash.
// The hashes are the bytes the scalar kernels and the former SSE4.2/AVX2
// kernels agreed on, hence the suite's name. Odd extents at ranks 1 to 4
// put block, tile and row tails everywhere, which the cubic Nyx fields of
// archive_bytes_golden_test.cc do not reach.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/statistics.h"
#include "src/data/tensor.h"
#include "src/util/random.h"
#include "tests/compressors/golden_hash.h"

namespace fxrz {
namespace {

Tensor MakeDataset(const std::string& kind) {
  if (kind == "line1d") {
    Rng rng(11);
    Tensor t({193});
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(std::sin(0.07 * i) +
                                0.02 * rng.NextGaussian());
    }
    return t;
  }
  if (kind == "plate2d") {
    Rng rng(12);
    Tensor t({33, 17});
    for (size_t y = 0; y < 33; ++y) {
      for (size_t x = 0; x < 17; ++x) {
        t.at({y, x}) = static_cast<float>(std::cos(0.2 * y) * (0.5 + 0.03 * x) +
                                          0.05 * rng.NextGaussian());
      }
    }
    return t;
  }
  if (kind == "brick3d") {
    Rng rng(13);
    Tensor t({17, 13, 9});
    for (size_t z = 0; z < 17; ++z) {
      for (size_t y = 0; y < 13; ++y) {
        for (size_t x = 0; x < 9; ++x) {
          t.at({z, y, x}) = static_cast<float>(
              std::sin(0.3 * z) + std::cos(0.25 * y) + 0.1 * x +
              0.02 * rng.NextGaussian());
        }
      }
    }
    return t;
  }
  // "stack4d"
  Rng rng(14);
  Tensor t({3, 9, 10, 11});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(std::sin(0.01 * i) + 0.05 * rng.NextGaussian());
  }
  return t;
}

struct RecordedCase {
  const char* key;  // "<codec>_<shape>"
  uint64_t archive;
  uint64_t decoded;
};

// FNV-1a of each case's archive and of the floats it decodes to.
constexpr RecordedCase kRecorded[] = {
    {"sz_line1d", 0x62b788450874cda8, 0xa2ec865ad4cb31fd},
    {"sz_plate2d", 0x1325b28bb7a47c30, 0x416a2d40afad03d0},
    {"sz_brick3d", 0x53ede2810ed9d4fe, 0x8b005ec16814f21c},
    {"sz_stack4d", 0xc1940cf42aaa8b64, 0x512c713eee7b323e},
    {"sz3_line1d", 0x32a31b5c58224dbb, 0x26c6c4f344b2e3c5},
    {"sz3_plate2d", 0x98299b44b2ccbb44, 0x3e43ca6f0bb27122},
    {"sz3_brick3d", 0xfc4a1eb80236a167, 0x99ce0462c5a43ab7},
    {"sz3_stack4d", 0x8842449f4eafb4cd, 0x1b05ad145a39b383},
    {"zfp_line1d", 0xf8ec34a10a731f3b, 0xe12af44ddac86a65},
    {"zfp_plate2d", 0x3861a3c8815576e5, 0xcc9d7c97c439abc7},
    {"zfp_brick3d", 0x95484a347387bd48, 0x28f42ad55b179b36},
    {"zfp_stack4d", 0x18ae0c1df9d02fb9, 0x33d6ca5f8c0c0660},
    {"fpzip_line1d", 0xa3abbe87c31c062a, 0xa8d233ba5927c671},
    {"fpzip_plate2d", 0x3ce0ff487900fb62, 0xe7e76d8581c55738},
    {"fpzip_brick3d", 0x0fb8a8fb435f2482, 0x42cec73e83eb7332},
    {"fpzip_stack4d", 0x85643a16fc5f9577, 0xc882b8d6daf8c2ae},
    {"mgard_line1d", 0x655016deca66aeb6, 0xd0e18102f56a39ba},
    {"mgard_plate2d", 0xa3942c5726d14c32, 0x7448ac129e4cf8a2},
    {"mgard_brick3d", 0x949f0c10fefddd87, 0xaae237db14b36a83},
    {"mgard_stack4d", 0xe84b06e68abf87d3, 0x3ef98a6edd5091d7},
};

class SimdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SimdEquivalenceTest, ArchivesAndDecodesAreBitIdentical) {
  const std::string& name = std::get<0>(GetParam());
  const std::string key = name + "_" + std::get<1>(GetParam());
  const Tensor data = MakeDataset(std::get<1>(GetParam()));
  const std::unique_ptr<Compressor> comp = MakeCompressor(name);
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config = space.integer
                            ? std::round(0.5 * (space.min + space.max))
                            : std::sqrt(space.min * space.max);

  const std::vector<uint8_t> archive = comp->Compress(data, config).value();
  Tensor decoded;
  ASSERT_TRUE(comp->Decompress(archive.data(), archive.size(), &decoded).ok());

  const RecordedCase* rec = std::find_if(
      std::begin(kRecorded), std::end(kRecorded),
      [&](const RecordedCase& c) { return key == c.key; });
  ASSERT_NE(rec, std::end(kRecorded)) << key << ": no recorded hashes";
  EXPECT_EQ(Hex(Hash(archive)), Hex(rec->archive)) << key << " archive";
  EXPECT_EQ(Hex(HashTensor(decoded)), Hex(rec->decoded))
      << key << " decoded floats";
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, SimdEquivalenceTest,
    ::testing::Combine(::testing::Values("sz", "sz3", "zfp", "fpzip", "mgard"),
                       ::testing::Values("line1d", "plate2d", "brick3d",
                                         "stack4d")),
    [](const ::testing::TestParamInfo<SimdEquivalenceTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace fxrz
