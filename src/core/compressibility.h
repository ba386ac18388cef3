// Compressibility Adjustment (paper Sec. IV-E2).
//
// Smooth near-constant regions compress to almost nothing and make a
// dataset's overall ratio over-represent its "true" density. FXRZ splits the
// dataset into small blocks, classifies each as constant (value range below
// lambda * |dataset mean|) or non-constant, and adjusts the target ratio:
//   ACR = TCR * R,   R = fraction of non-constant blocks.
//
// The scan is a fused single pass: per-block min/max and the global value
// sum (for the mean threshold) are gathered together in memory order, split
// into block-aligned units whose partial sums merge in unit order -- so the
// result is bit-identical at any thread count.

#ifndef FXRZ_CORE_COMPRESSIBILITY_H_
#define FXRZ_CORE_COMPRESSIBILITY_H_

#include <cstddef>
#include <cstdint>

#include "src/data/tensor.h"

namespace fxrz {

struct CaOptions {
  size_t block = 4;      // block edge length per dimension (paper: 4x4x4)
  double lambda = 0.15;  // threshold coefficient on |mean| (paper Table IV)
};

// Statistics from the constant-block scan.
struct BlockScanResult {
  size_t total_blocks = 0;
  size_t constant_blocks = 0;
  // R: fraction of non-constant blocks in (0, 1].
  double non_constant_ratio = 1.0;
};

// Scans `data` in block x block x ... tiles over its last <=3 dimensions.
BlockScanResult ScanConstantBlocks(const Tensor& data,
                                   const CaOptions& options = {});

// Legacy three-pass implementation (summary statistics pass + block-order
// walk), retained as the baseline for the micro_analysis benchmark.
BlockScanResult ScanConstantBlocksReference(const Tensor& data,
                                            const CaOptions& options = {});

// Number of (fused) ScanConstantBlocks calls made by this process. Test
// hook for verifying that analysis caching eliminates redundant scans.
uint64_t ConstantBlockScanCount();

// ACR = TCR * R (paper Formula 4).
double AdjustTargetRatio(double target_ratio, double non_constant_ratio);

}  // namespace fxrz

#endif  // FXRZ_CORE_COMPRESSIBILITY_H_
