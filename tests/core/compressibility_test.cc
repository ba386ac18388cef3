#include "src/core/compressibility.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "tests/util/workers_parked.h"

namespace fxrz {
namespace {

TEST(ConstantBlockScanTest, FullyConstantDataset) {
  Tensor t({8, 8, 8});
  for (size_t i = 0; i < t.size(); ++i) t[i] = 4.0f;
  const BlockScanResult r = ScanConstantBlocks(t);
  EXPECT_EQ(r.total_blocks, 8u);  // (8/4)^3
  EXPECT_EQ(r.constant_blocks, 8u);
  // Guarded: R never reaches zero.
  EXPECT_GT(r.non_constant_ratio, 0.0);
  EXPECT_LE(r.non_constant_ratio, 1e-3 + 1e-12);
}

TEST(ConstantBlockScanTest, FullyVaryingDataset) {
  Tensor t({8, 8, 8});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(i % 2 == 0 ? 0.0 : 10.0);
  }
  const BlockScanResult r = ScanConstantBlocks(t);
  EXPECT_EQ(r.constant_blocks, 0u);
  EXPECT_EQ(r.non_constant_ratio, 1.0);
}

TEST(ConstantBlockScanTest, MixedBlocksCountedExactly) {
  // 2x2x2 blocks of 4^3: make exactly 3 of 8 blocks non-constant.
  Tensor t({8, 8, 8});
  for (size_t i = 0; i < t.size(); ++i) t[i] = 1.0f;
  t.at({0, 0, 0}) = 5.0f;  // block (0,0,0)
  t.at({0, 0, 5}) = 5.0f;  // block (0,0,1)
  t.at({5, 5, 5}) = 5.0f;  // block (1,1,1)
  const BlockScanResult r = ScanConstantBlocks(t);
  EXPECT_EQ(r.total_blocks, 8u);
  EXPECT_EQ(r.constant_blocks, 5u);
  EXPECT_DOUBLE_EQ(r.non_constant_ratio, 3.0 / 8.0);
}

TEST(ConstantBlockScanTest, LambdaControlsSensitivity) {
  // Blocks vary by 10% of the mean: constant under lambda=0.15, not under
  // lambda=0.05.
  Tensor t({4, 4, 4});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = 1.0f + 0.1f * static_cast<float>(i % 2);
  }
  CaOptions strict;
  strict.lambda = 0.05;
  CaOptions loose;
  loose.lambda = 0.15;
  EXPECT_EQ(ScanConstantBlocks(t, strict).constant_blocks, 0u);
  EXPECT_EQ(ScanConstantBlocks(t, loose).constant_blocks, 1u);
}

TEST(ConstantBlockScanTest, PartialEdgeBlocks) {
  Tensor t({5, 5, 5});  // not a multiple of the block size
  for (size_t i = 0; i < t.size(); ++i) t[i] = 1.0f;
  const BlockScanResult r = ScanConstantBlocks(t);
  EXPECT_EQ(r.total_blocks, 8u);  // ceil(5/4)^3
  EXPECT_EQ(r.constant_blocks, 8u);
}

TEST(ConstantBlockScanTest, Rank4TreatsLeadingDimAsSlices) {
  Tensor t({3, 4, 4, 4});
  for (size_t i = 0; i < t.size(); ++i) t[i] = 2.0f;
  const BlockScanResult r = ScanConstantBlocks(t);
  EXPECT_EQ(r.total_blocks, 3u);
}

TEST(ConstantBlockScanTest, ParallelMatchesSerial) {
  Tensor t({24, 17, 21});
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = 1.0f + ((i / 64) % 3 == 0
                       ? 0.0f
                       : 0.5f * std::sin(0.021f * static_cast<float>(i)));
  }
  BlockScanResult rs;
  WithWorkersParked([&] { rs = ScanConstantBlocks(t); });
  const BlockScanResult rp = ScanConstantBlocks(t);
  EXPECT_EQ(rs.total_blocks, rp.total_blocks);
  EXPECT_EQ(rs.constant_blocks, rp.constant_blocks);
  EXPECT_EQ(rs.non_constant_ratio, rp.non_constant_ratio);
}

TEST(ConstantBlockScanTest, FusedMatchesReferenceScan) {
  // Same block classification as the legacy two-pass scan on shapes with
  // ragged edge blocks (values chosen away from the threshold so the
  // fused/reference mean-rounding difference cannot flip a block).
  const std::vector<std::vector<size_t>> shapes = {
      {100}, {13, 9}, {10, 11, 7}, {2, 5, 9, 6}};
  for (const auto& shape : shapes) {
    Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t[i] = ((i / 32) % 2 == 0) ? 1.0f : 1.0f + static_cast<float>(i % 5);
    }
    const BlockScanResult fused = ScanConstantBlocks(t);
    const BlockScanResult ref = ScanConstantBlocksReference(t);
    SCOPED_TRACE("rank=" + std::to_string(shape.size()));
    EXPECT_EQ(fused.total_blocks, ref.total_blocks);
    EXPECT_EQ(fused.constant_blocks, ref.constant_blocks);
    EXPECT_DOUBLE_EQ(fused.non_constant_ratio, ref.non_constant_ratio);
  }
}

TEST(AdjustTargetRatioTest, Formula4) {
  EXPECT_DOUBLE_EQ(AdjustTargetRatio(100.0, 0.25), 25.0);
  EXPECT_DOUBLE_EQ(AdjustTargetRatio(40.0, 1.0), 40.0);
}

TEST(AdjustTargetRatioDeathTest, RejectsNonPositive) {
  EXPECT_DEATH(AdjustTargetRatio(0.0, 0.5), "");
  EXPECT_DEATH(AdjustTargetRatio(10.0, 0.0), "");
}

}  // namespace
}  // namespace fxrz
