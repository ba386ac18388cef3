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

}  // namespace fxrz

#endif  // FXRZ_COMPRESSORS_SZ_H_
