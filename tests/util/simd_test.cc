// The kernel-level stub: every kernel is scalar, and the name stamped into
// benchmark provenance lines says so.

#include "src/util/simd.h"

#include "gtest/gtest.h"

namespace fxrz {
namespace {

TEST(SimdDispatchTest, LevelNamesAreStable) {
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_STREQ(simd::LevelName(simd::ActiveLevel()), "scalar");
}

}  // namespace
}  // namespace fxrz
