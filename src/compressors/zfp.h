// ZFP-like transform-based lossy compressor.
//
// Reimplementation of the ZFP scheme (Lindstrom):
//   1. partition into 4^d blocks (d = min(rank, 3); partial blocks padded
//      by edge replication, 4D tensors handled as 3D hyperslices);
//   2. per-block block-floating-point: values are scaled by a common power
//      of two into 64-bit fixed point;
//   3. the (near-)orthogonal ZFP lifting transform along each dimension;
//   4. negabinary mapping and embedded bitplane coding of the transform
//      coefficients in total-degree order, MSB plane first.
//
// Two modes, matching real ZFP:
//   - fixed-accuracy: bitplanes are kept down to a plane derived from the
//     absolute error bound (the knob used by FXRZ);
//   - fixed-rate: every block gets exactly `rate` bits per value -- this is
//     the mode the paper's Related Work criticizes for ~2x lower ratios at
//     equal distortion, reproduced in bench/fig02_interpolation.
//
// The fixed-accuracy error is bounded but conservative (like real ZFP, the
// observed error is typically well below the bound). The characteristic
// *stairwise* CR-vs-eb curve (Fig. 2 of the paper) emerges from bitplane
// truncation.
//
// Every block is coded independently, so compression runs on the shared
// thread pool: contiguous ranges of blocks encode into their own bit
// writers, and their bits are spliced into the payload at offsets from a
// prefix sum of the ranges' bit counts. The archive is byte-identical to a
// serial encode at any thread count. Decompression is serial: the payload
// carries no per-range offsets, so a block's start is known only after
// parsing every block before it.

#ifndef FXRZ_COMPRESSORS_ZFP_H_
#define FXRZ_COMPRESSORS_ZFP_H_

#include "src/compressors/compressor.h"

namespace fxrz {

class ZfpCompressor : public Compressor {
 public:
  std::string name() const override { return "zfp"; }
  ConfigSpace config_space(double value_range) const override;

  // Fixed-rate compression: exactly `bits_per_value` bits per element
  // (rounded up to whole bits per block). Runs through the same span,
  // metrics and fault site as Compress: a rate outside (0, 34], an empty
  // tensor or a NaN/Inf value fails as InvalidArgument, an injected fault
  // as Unavailable.
  StatusOr<std::vector<uint8_t>> CompressFixedRate(
      const Tensor& data, double bits_per_value) const;

 private:
  // Fixed-accuracy compression with absolute error bound `config`.
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  // Decompresses either mode.
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;
};

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_ZFP_H_
