// Corruption-robustness property test: flipping bits or truncating a valid
// compressed stream must yield either a Status error or a well-formed
// tensor -- never a crash, hang, or unbounded allocation. This is the
// contract a storage system (FieldStore, HDF5 filter) depends on.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/data/generators/grf.h"
#include "src/data/statistics.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

class CorruptionFuzzTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorruptionFuzzTest, RandomBitFlipsNeverCrash) {
  const auto comp = MakeCompressor(GetParam());
  const Tensor data = GaussianRandomField3D(16, 16, 16, 3.0, 701);
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config =
      space.integer ? 12 : std::sqrt(space.min * space.max);
  const std::vector<uint8_t> bytes = comp->Compress(data, config).value();

  Rng rng(702);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.NextBelow(8));
    for (int f = 0; f < flips; ++f) {
      const size_t byte = rng.NextBelow(mutated.size());
      mutated[byte] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
    Tensor out;
    const Status st = comp->Decompress(mutated.data(), mutated.size(), &out);
    if (st.ok()) {
      // A lucky mutation may still decode; the result must be well-formed.
      EXPECT_FALSE(out.empty());
      EXPECT_LE(out.size(), size_t{1} << 24);
    }
  }
}

TEST_P(CorruptionFuzzTest, EveryTruncationLengthHandled) {
  const auto comp = MakeCompressor(GetParam());
  const Tensor data = GaussianRandomField3D(8, 8, 8, 3.0, 703);
  const ConfigSpace space = comp->config_space(ValueRange(data));
  const double config =
      space.integer ? 12 : std::sqrt(space.min * space.max);
  const std::vector<uint8_t> bytes = comp->Compress(data, config).value();

  // Sweep a sample of truncation points including all short prefixes.
  std::vector<size_t> lengths;
  for (size_t i = 0; i < std::min<size_t>(bytes.size(), 64); ++i) {
    lengths.push_back(i);
  }
  for (size_t i = 64; i < bytes.size(); i += 97) lengths.push_back(i);
  for (size_t len : lengths) {
    Tensor out;
    const Status st = comp->Decompress(bytes.data(), len, &out);
    EXPECT_FALSE(st.ok()) << "truncation to " << len << " bytes decoded";
  }
}

TEST_P(CorruptionFuzzTest, PureGarbageRejected) {
  const auto comp = MakeCompressor(GetParam());
  Rng rng(704);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint8_t> garbage(64 + rng.NextBelow(512));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextBelow(256));
    Tensor out;
    EXPECT_FALSE(comp->Decompress(garbage.data(), garbage.size(), &out).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompressors, CorruptionFuzzTest,
                         ::testing::Values("sz", "sz3", "zfp", "fpzip",
                                           "mgard"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace fxrz
