// Archive-level SIMD/scalar equivalence: every codec must emit byte-identical
// archives whether the kernels dispatch to the scalar reference or the best
// vector path this machine supports, and each side must decode the other's
// archives to bit-identical tensors. This is the compatibility contract that
// lets archives move between vector and scalar-only machines.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/compressors/compressor.h"
#include "src/compressors/relative.h"
#include "src/data/tensor.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace fxrz {
namespace {

using simd::Level;

struct LevelGuard {
  ~LevelGuard() { simd::ForceLevel(simd::DetectedLevel()); }
};

// Odd extents everywhere: block/tile boundaries, vector tails, and partial
// rows all land off the aligned fast path.
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

class SimdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(SimdEquivalenceTest, ArchivesAndDecodesAreBitIdentical) {
  LevelGuard guard;
  const Level best = simd::DetectedLevel();
  if (best == Level::kScalar) {
    GTEST_SKIP() << "no vector unit (or FXRZ_SIMD=OFF); nothing to compare";
  }
  const std::string& name = std::get<0>(GetParam());
  const Tensor data = MakeDataset(std::get<1>(GetParam()));
  const std::unique_ptr<Compressor> comp =
      name == "relative"
          ? std::make_unique<RelativeErrorCompressor>(MakeCompressor("sz"))
          : MakeCompressor(name);
  const ConfigSpace space = comp->config_space(data);
  const double config = space.integer
                            ? std::round(0.5 * (space.min + space.max))
                            : std::sqrt(space.min * space.max);

  simd::ForceLevel(Level::kScalar);
  const std::vector<uint8_t> scalar_archive =
      comp->Compress(data, config).value();
  simd::ForceLevel(best);
  const std::vector<uint8_t> vector_archive =
      comp->Compress(data, config).value();
  ASSERT_EQ(scalar_archive, vector_archive)
      << name << ": scalar and " << simd::LevelName(best)
      << " paths wrote different archives";

  // Cross-decode: each dispatch level decodes the shared archive to the
  // exact same floats.
  Tensor vector_out;
  ASSERT_TRUE(comp->Decompress(scalar_archive.data(), scalar_archive.size(),
                               &vector_out)
                  .ok());
  simd::ForceLevel(Level::kScalar);
  Tensor scalar_out;
  ASSERT_TRUE(comp->Decompress(vector_archive.data(), vector_archive.size(),
                               &scalar_out)
                  .ok());
  EXPECT_TRUE(scalar_out.SameAs(vector_out))
      << name << ": decode differs between scalar and "
      << simd::LevelName(best);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, SimdEquivalenceTest,
    ::testing::Combine(::testing::Values("sz", "sz3", "zfp", "fpzip", "mgard",
                                         "relative"),
                       ::testing::Values("line1d", "plate2d", "brick3d",
                                         "stack4d")),
    [](const ::testing::TestParamInfo<SimdEquivalenceTest::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace fxrz
