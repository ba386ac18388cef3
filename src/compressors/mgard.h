// MGARD-like multilevel error-controlled lossy compressor.
//
// Follows the MGARD/MGARD+ recipe (Ainsworth et al.; Liang et al.):
//   1. multilevel decomposition -- a hierarchy of dyadic grids where each
//      finer-level point is replaced by its residual against linear
//      interpolation from the coarser grid (dimension-by-dimension lifting);
//   2. uniform quantization of all multilevel coefficients with a step
//      chosen so that the worst-case accumulated interpolation error stays
//      within the user's absolute error bound;
//   3. canonical Huffman coding of the codes, each run of the most frequent
//      code written as its length in RUNA/RUNB digits
//      (src/compressors/code_stream.h).
//
// Guarantee: max |x - x'| <= eb (conservative step splitting across levels).

#ifndef FXRZ_COMPRESSORS_MGARD_H_
#define FXRZ_COMPRESSORS_MGARD_H_

#include "src/compressors/compressor.h"

namespace fxrz {

class MgardCompressor : public Compressor {
 public:
  std::string name() const override { return "mgard"; }
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

#endif  // FXRZ_COMPRESSORS_MGARD_H_
