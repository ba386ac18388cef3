// SZ-like error-bounded lossy compressor.
//
// Reimplementation of the classic SZ pipeline (Di & Cappello; Tao et al.):
//   1. Lorenzo prediction from already-reconstructed neighbors (1D/2D/3D;
//      4D tensors are compressed as independent 3D hyperslices);
//   2. linear-scaling quantization of the prediction residual with a
//      user-set absolute error bound (quantization bin width = 2*eb);
//   3. canonical Huffman coding of the quantization codes, followed by a
//      dictionary-coding pass (zlite, standing in for Zstd).
// Values whose residual overflows the quantization capacity are stored
// verbatim ("unpredictable"), exactly as in SZ.
//
// Guarantee: max |x - x'| <= eb for every element.

#ifndef FXRZ_COMPRESSORS_SZ_H_
#define FXRZ_COMPRESSORS_SZ_H_

#include <array>
#include <cstddef>
#include <vector>

#include "src/compressors/compressor.h"

namespace fxrz {

class SzCompressor : public Compressor {
 public:
  std::string name() const override { return "sz"; }
  ConfigSpace config_space(double value_range) const override {
    return compressor_internal::ErrorBoundSpace(value_range);
  }

 private:
  StatusOr<std::vector<uint8_t>> DoCompress(const Tensor& data,
                                            double config) const override;
  Status DoDecompress(const uint8_t* data, size_t size,
                      Tensor* out) const override;
};

namespace sz_internal {

// The coordinate tables of one block shape: each point's block-local
// coordinates in (z, y, x) order, the same centred on the block's mean,
// and the centred coordinates' sums of squares, summed in the lane order
// the plane fit sums its data terms in. They depend only on the shape.
struct BlockShape {
  size_t n = 0;                       // points in the block
  double mz = 0, my = 0, mx = 0;      // mean coordinate along each axis
  std::vector<double> cz, cy, cx;     // block-local coordinates (0-based)
  std::vector<double> ccz, ccy, ccx;  // centred coordinates
  double szz = 0, syy = 0, sxx = 0;   // sums of ccz^2, ccy^2, ccx^2
};

// The tables of every block shape of a field with dimensions `dims`. A
// block is full or the field's remainder along each of its three axes, so
// a field has at most 8 shapes.
class BlockShapes {
 public:
  explicit BlockShapes(const std::vector<size_t>& dims);

  // The shape of the block whose bounds along each axis are [lo, hi).
  const BlockShape& Of(const size_t* lo, const size_t* hi) const;

 private:
  std::array<BlockShape, 8> shapes_;
};

}  // namespace sz_internal

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_SZ_H_
